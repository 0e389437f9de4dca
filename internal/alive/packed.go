package alive

import (
	"slices"

	"repro/internal/interp"
	"repro/internal/ir"
)

// runPacked runs the counter phase of a packable pair's exhaustive
// sequence on interp's packed tier, up to interp.PackedGroups groups of 64
// vectors per dispatch, and leaves the generator at the end of the phase.
// Argument words come from static ramps: vector v of a group starting at
// counter value c0 (a multiple of 64) gives parameter i, whose bits start
// at bit s of the counter, ((c0 >> s) & mask) | ((v >> s) & mask), and the
// two halves have no bits in common, so each word is a ramp word ORed with
// a broadcast. Source and target return words are compared word by word.
//
// A group with no violating lane counts its 64 vectors as runBatch would.
// The first group with one is re-run on the batch engine from the same
// counter value, which finds the same first violating vector and builds
// the counterexample exactly as the lane path does; runPacked returns it.
// The poison trials that follow the counter phase, and counter spaces
// smaller than one group, are left to the lane path.
func (c *Checker) runPacked(gen *inputGen, res *Result) *CounterExample {
	np := len(c.src.Params)
	if cap(c.ramps) < np {
		c.ramps = make([][64]uint64, np)
	}
	c.ramps = c.ramps[:np]
	shift := 0
	for i := range c.ramps {
		interp.PackedRamp(c.ramps[i][:], interp.PackedLaneBits(gen.widths[i]), shift, gen.masks[i])
		shift += gen.widths[i]
	}
	rlb := interp.PackedLaneBits(ir.ScalarBits(c.src.Ret))
	for gen.cmax-gen.c >= 64 {
		groups := int(min(uint64(interp.PackedGroups), (gen.cmax-gen.c)/64))
		shift = 0
		for i, ramp := range c.ramps {
			w, mask := gen.widths[i], gen.masks[i]
			lb := interp.PackedLaneBits(w)
			sv, sp := c.se.PackedArgColumn(i)
			for g := 0; g < groups; g++ {
				bc := interp.PackedBroadcast(((gen.c+uint64(64*g))>>uint(shift))&mask, lb)
				words := sv[g*lb : (g+1)*lb]
				for k := range words {
					words[k] = ramp[k] | bc
				}
			}
			clear(sp[:groups])
			tv, tp := c.te.PackedArgColumn(i)
			copy(tv[:groups*lb], sv[:groups*lb])
			clear(tp[:groups])
			shift += w
		}
		c.se.RunPacked(groups)
		c.te.RunPacked(groups)
		sv, spois, sub := c.se.PackedRet()
		tv, tpois, tub := c.te.PackedRet()
		for g := 0; g < groups; g++ {
			var diff uint64
			if s, t := sv[g*rlb:(g+1)*rlb], tv[g*rlb:(g+1)*rlb]; !slices.Equal(s, t) {
				diff = interp.PackedDiff(s, t, rlb)
			}
			// A source that returned constrains the target: no UB, and a
			// defined source lane needs an equal, defined target lane.
			if ^sub[g]&(tub[g]|^spois[g]&(tpois[g]|diff)) == 0 {
				res.Checked += 64
				res.Tiers.SpecialChecked += 64
				gen.c += 64
				continue
			}
			n, tier := gen.nextBatch(c.bArgs[:], c.srcCols, c.bTiers[:], nil)
			if _, ce := c.runBatch(n, tier, res); ce != nil {
				return ce
			}
		}
	}
	return nil
}

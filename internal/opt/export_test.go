package opt

import "repro/internal/ir"

// RunClone is RunWithStats without the copy-on-write probe: it always
// optimizes a clone of f, which is what the probe must reproduce.
func RunClone(f *ir.Func, opts Options) (*ir.Func, RunStats) {
	return newTransform(f, opts).run()
}

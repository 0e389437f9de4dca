package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter captures wall time, heap allocation, process CPU time and the
// machine's CPU ticks across a timed phase.
type meter struct {
	start        time.Time
	alloc0       uint64
	cpu0         time.Duration
	steal0, all0 uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, all := cpuTicks()
	return meter{start: time.Now(), alloc0: ms.TotalAlloc, cpu0: cpuTime(), steal0: steal, all0: all}
}

// stop returns the wall time, bytes allocated and CPU time since startMeter,
// and notes the share of the machine's CPU time its hypervisor stole: the
// usual cause of a slow run on a shared virtual machine.
func (m meter) stop(out *outcome) (wall time.Duration, alloc uint64, cpu time.Duration) {
	wall = time.Since(m.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, all := cpuTicks()
	out.note("CPU time stolen by the hypervisor during the timed phase: %.1f%%",
		100*ratio(float64(steal-m.steal0), float64(all-m.all0)))
	return wall, ms.TotalAlloc - m.alloc0, cpuTime() - m.cpu0
}

// cpuTicks reads the steal and total ticks of all CPUs from /proc/stat
// (zeros where it is not available).
func cpuTicks() (steal, all uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		all += n
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = n
		}
	}
	return steal, all
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// sorting xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sliceCount is how many equal slices of the timed phase the rate and the
// latency percentiles are taken over. Each is reported as its median
// across slices, so a slow stretch shorter than half the phase — a noisy
// neighbour on a shared machine — does not move it.
const sliceCount = 9

// reportSliced sets ops_per_s, latency_p50_ms and latency_p99_ms. done[i]
// is when op i completed, in seconds from the start of a timed phase of
// length wall, and lat[i] its latency in milliseconds.
func reportSliced(out *outcome, done, lat []float64, wall time.Duration) {
	width := wall.Seconds() / sliceCount
	per := make([][]float64, sliceCount)
	for i, t := range done {
		k := min(int(t/width), sliceCount-1)
		per[k] = append(per[k], lat[i])
	}
	rates := make([]float64, sliceCount)
	p50s := make([]float64, sliceCount)
	p99s := make([]float64, sliceCount)
	fewest := len(lat)
	for k, l := range per {
		rates[k] = float64(len(l)) / width
		p50s[k] = percentile(l, 50)
		p99s[k] = percentile(l, 99)
		fewest = min(fewest, len(l))
	}
	out.set("ops_per_s", median(rates), "1/s")
	out.set("latency_p50_ms", median(p50s), "ms")
	out.set("latency_p99_ms", median(p99s), "ms")
	out.note("%d ops in %d slices of %.2f s; the smallest slice has %d latency samples, %d beyond its p99",
		len(lat), sliceCount, width, fewest, fewest-int(math.Ceil(0.99*float64(fewest))))
}

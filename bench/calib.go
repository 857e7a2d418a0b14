package bench

import (
	"math"
	"time"
)

// The host this benchmark runs on drifts in speed by up to 2x between
// runs and by tens of percent from one job to the next (neighbouring
// tenants; no steal time is reported), far beyond any regression bound.
// The drift decorrelates within a few tenths of a second, so a short
// calibration kernel runs between jobs, at least every calibEvery of job
// time, and every job is reported at the reference host speed: a time t
// measured between two kernel runs that took c1 and c2 is reported as
// t*(refCalibNS/((c1+c2)/2))^calibExponent. The kernel lives in the
// benchmark, so no change to the simulator can change it. It is random
// read-modify-write access to a table larger than the host's last-level
// cache share: of the kernels tried on the reference host (integer
// arithmetic, L2-resident and LLC-missing memory access, interpreter
// dispatch, tokenizers, sorting, compression) its drift tracked the
// simulator's most closely. None drifts as far as the simulator, whose
// slowdown in a slow episode is the kernel's raised to about 1.35 (SPEC
// workloads) or 1.15 (progen workloads), fitted over 240 runs; the
// exponent splits the difference.

// calibEvery is the job time after which the kernel runs again.
const calibEvery = 25 * time.Millisecond

// refCalibNS is the kernel's median duration on the reference host (the
// 2-vCPU Xeon VM of bench/baseline) at calibIters iterations.
const refCalibNS = 3e6

const calibIters = 150_000

// calibExponent is the simulator's sensitivity to host drift relative to
// the kernel's (see above).
const calibExponent = 1.25

// scale is the factor that brings a host time measured while the kernel
// took ns to the reference host speed.
func scale(ns float64) float64 { return math.Pow(refCalibNS/ns, calibExponent) }

// calibrator runs the calibration kernel and keeps every duration of one
// benchmark run.
type calibrator struct {
	table []uint32 // 4 MB
	iters int
	ns    []float64
}

// newCalibrator returns a calibrator whose kernel runs iters iterations,
// or calibIters for 0.
func newCalibrator(iters int) *calibrator {
	if iters == 0 {
		iters = calibIters
	}
	c := &calibrator{table: make([]uint32, 1<<20), iters: iters}
	for i := range c.table {
		c.table[i] = uint32(i) // fault every page in before the first timing
	}
	return c
}

// run runs the kernel once, records its duration and returns it in ns.
func (c *calibrator) run() float64 {
	start := time.Now()
	x, mask := uint64(88172645463325252), uint64(len(c.table)-1)
	for i := 0; i < c.iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		if v := c.table[j]; v&1 == 0 {
			c.table[j] = v + uint32(x)
		} else {
			c.table[(j+64)&mask] ^= v
		}
	}
	ns := float64(time.Since(start))
	c.ns = append(c.ns, ns)
	return ns
}

// speed is the kernel's speed relative to the reference host: the
// reference duration over the median duration so far.
func (c *calibrator) speed() float64 { return refCalibNS / median(c.ns) }

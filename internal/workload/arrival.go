package workload

// Open-loop arrival processes for service workloads: unlike the closed-loop
// drivers elsewhere in this package (which issue the next operation the
// moment the previous one finishes), an open-loop load offers requests at
// externally scheduled instants, so queueing delay — and with it tail
// latency — becomes observable when the system falls behind.

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// ArrivalTimes returns n nondecreasing absolute Poisson arrival instants
// after start, with mean interarrival gap meanGap cycles: the memoryless
// arrival stream of a large population of independent clients, and the
// standard open-loop model. Gaps come from rng (one Float64 draw per
// request, so the stream is a pure function of the seed) and accumulate
// in float64 before rounding, so spacing error does not compound across
// requests.
func ArrivalTimes(start sim.Time, meanGap float64, n int, rng *stats.RNG) ([]sim.Time, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: ArrivalTimes count %d must be non-negative", n)
	}
	if math.IsNaN(meanGap) || math.IsInf(meanGap, 0) || meanGap <= 0 {
		return nil, fmt.Errorf("workload: ArrivalTimes mean gap %v must be positive and finite", meanGap)
	}
	times := make([]sim.Time, n)
	acc := 0.0
	for i := range times {
		// Inverse-CDF exponential draw. Float64 is in [0, 1), so
		// Log1p(-u) is finite and non-positive: gaps are always
		// non-negative and never NaN.
		acc -= meanGap * math.Log1p(-rng.Float64())
		times[i] = start + sim.Time(acc)
	}
	return times, nil
}

package workload

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestArrivalTimesPoissonDeterministic(t *testing.T) {
	a, err := ArrivalTimes(0, 1000, 500, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ArrivalTimes(0, 1000, 500, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d: %d vs %d", i, a[i], b[i])
		}
	}
	c, err := ArrivalTimes(0, 1000, 500, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical arrival stream")
	}
}

func TestArrivalTimesPoissonStatistics(t *testing.T) {
	const n, gap = 20000, 500.0
	times, err := ArrivalTimes(0, gap, n, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	prev := sim.Time(0)
	for i, at := range times {
		if at < prev {
			t.Fatalf("arrival %d goes backwards: %d after %d", i, at, prev)
		}
		prev = at
	}
	// The mean gap of an exponential stream converges to the configured
	// mean: n=20000 puts the sample mean within a few percent.
	mean := float64(times[n-1]) / n
	if math.Abs(mean-gap) > 0.05*gap {
		t.Errorf("sample mean gap %.1f not within 5%% of %v", mean, gap)
	}
}

func TestArrivalTimesRejectsBadInputs(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := ArrivalTimes(0, 0, 4, rng); err == nil {
		t.Error("zero mean gap accepted")
	}
	if _, err := ArrivalTimes(0, -10, 4, rng); err == nil {
		t.Error("negative mean gap accepted")
	}
	if _, err := ArrivalTimes(0, math.NaN(), 4, rng); err == nil {
		t.Error("NaN mean gap accepted")
	}
	if _, err := ArrivalTimes(0, 100, -1, rng); err == nil {
		t.Error("negative count accepted")
	}
	if times, err := ArrivalTimes(0, 100, 0, rng); err != nil || len(times) != 0 {
		t.Errorf("zero-count stream should be empty and valid, got %v, %v", times, err)
	}
}

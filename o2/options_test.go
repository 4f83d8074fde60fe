package o2

import (
	"math"
	"strings"
	"testing"
)

func TestNewDefaults(t *testing.T) {
	rt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Scheduler() != CoreTime {
		t.Errorf("default scheduler = %v, want CoreTime", rt.Scheduler())
	}
	if rt.SchedulerName() != "coretime" {
		t.Errorf("scheduler name = %q, want coretime", rt.SchedulerName())
	}
	if got := rt.Topology().Name(); got != "amd16" {
		t.Errorf("default topology = %q, want amd16", got)
	}
	if got := rt.NumCores(); got != 16 {
		t.Errorf("default cores = %d, want 16", got)
	}
	if got := rt.ClockHz(); got != 2e9 {
		t.Errorf("default clock = %v, want 2 GHz", got)
	}
}

func TestOptionOrderLaterWins(t *testing.T) {
	rt := MustNew(
		WithTopology(Tiny8),
		WithScheduler(CoreTime),
		WithScheduler(Baseline),
	)
	if rt.Scheduler() != Baseline {
		t.Errorf("scheduler = %v, want Baseline (later option must win)", rt.Scheduler())
	}
	if rt.SchedulerName() != "thread-scheduler" {
		t.Errorf("scheduler name = %q, want thread-scheduler", rt.SchedulerName())
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		frag string // expected substring of the error
	}{
		{"zero topology", []Option{WithTopology(Topology{})}, "topology"},
		{"bad scheduler", []Option{WithScheduler(Scheduler(42))}, "unknown scheduler"},
		{"bad replacement", []Option{WithReplacement(Replacement(9))}, "unknown replacement"},
		{"negative memory", []Option{WithMemory(-1)}, "must be positive"},
		{"negative miss threshold", []Option{WithMissThreshold(-1)}, "non-negative"},
		{"bad read ratio", []Option{WithReplicationThreshold(8, 1.5)}, "read ratio"},
		{"bad dram fraction", []Option{WithDRAMUnplaceFraction(2)}, "fraction"},
		{"bad trace capacity", []Option{WithTrace(0)}, "trace capacity"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.opts...); err == nil {
				t.Fatalf("New(%s) succeeded, want error", c.name)
			} else if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not mention %q", err, c.frag)
			}
		})
	}
}

func TestOptionErrorsAccumulate(t *testing.T) {
	_, err := New(WithMemory(-1), WithTrace(-3))
	if err == nil {
		t.Fatal("want error")
	}
	for _, frag := range []string{"must be positive", "trace capacity"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("combined error %q missing %q", err, frag)
		}
	}
}

func TestInvalidOptionDoesNotClobberSetting(t *testing.T) {
	// A rejected value must leave the previous (default) setting intact,
	// not half-apply.
	_, err := New(WithReplicationThreshold(8, -0.5))
	if err == nil {
		t.Fatal("want error for negative read ratio")
	}
	// And a valid runtime built afterwards still defaults sanely.
	rt := MustNew(WithTopology(Small4))
	if rt.NumCores() != 4 {
		t.Errorf("Small4 cores = %d, want 4", rt.NumCores())
	}
}

func TestWithCoreSpeedsValidated(t *testing.T) {
	// CoreSpeed length must match the core count; topology validation
	// runs inside New.
	_, err := New(WithTopology(Tiny8.WithCoreSpeeds(1, 2)))
	if err == nil {
		t.Fatal("want error for CoreSpeed length mismatch")
	}
	rt := MustNew(WithTopology(Tiny8.WithCoreSpeeds(1, 2, 1, 2, 1, 2, 1, 2)))
	if rt.NumCores() != 8 {
		t.Errorf("cores = %d, want 8", rt.NumCores())
	}
}

func TestWithMemoryGrowsForTree(t *testing.T) {
	// The lazy machine image must grow to fit a tree larger than the
	// 64 MB default would hold.
	spec := DirSpec{Dirs: 64, EntriesPerDir: 1000}
	rt := MustNew(WithTopology(Tiny8))
	if _, err := rt.NewDirTree(spec); err != nil {
		t.Fatalf("auto-sized tree build failed: %v", err)
	}

	// An explicit WithMemory below the requirement is still grown, never
	// silently truncated.
	rt2 := MustNew(WithTopology(Tiny8), WithMemory(1<<20))
	if _, err := rt2.NewDirTree(spec); err != nil {
		t.Fatalf("tree build with small explicit memory failed: %v", err)
	}
}

func TestExperimentPartialParamsDefaulted(t *testing.T) {
	// A partially-filled Params must have its zero fields defaulted field
	// by field (RunParams.WithDefaults) — the same path the sweep engine
	// uses — not run a zero-length measurement or panic deep inside the
	// workload driver.
	exp := Experiment{
		Machine: Small4,
		Tree:    DirSpec{Dirs: 2, EntriesPerDir: 64},
		Params:  RunParams{Seed: 2, Warmup: 100_000, Measure: 200_000},
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatalf("Run with partial params: %v", err)
	}
	if res.Resolutions == 0 {
		t.Error("partial params produced a zero-length measurement")
	}
	if got, want := len(res.PerThread), DefaultRunParams().Threads; got != want {
		t.Errorf("defaulted thread count = %d, want %d", got, want)
	}

	// Explicitly invalid values still come back as errors.
	exp.Params.Threads = -1
	if _, err := exp.Run(); err == nil || !strings.Contains(err.Error(), "Threads") {
		t.Fatalf("Run with negative Threads: err = %v, want Threads validation error", err)
	}
}

func TestTreeRunPartialParamsDefaulted(t *testing.T) {
	// DirTree.Run and PathTree.Run fill zero fields as Experiment.Run
	// does: a caller that only chose the thread count, or nothing at all,
	// gets the default measurement window, not a zero-length one whose
	// rate is 0/0.
	rt := MustNew(WithTopology(Small4))
	tree, err := rt.NewDirTree(DirSpec{Dirs: 2, EntriesPerDir: 64})
	if err != nil {
		t.Fatal(err)
	}
	res := tree.Run(RunParams{Threads: 4})
	if math.IsNaN(res.KResPerSec) || res.KResPerSec <= 0 || len(res.PerThread) != 4 {
		t.Errorf("DirTree.Run(RunParams{Threads: 4}) = %v kres/s over %d threads, want a positive rate over 4",
			res.KResPerSec, len(res.PerThread))
	}

	rt = MustNew(WithTopology(Small4))
	pt, err := rt.NewPathTree(PathSpec{TopDirs: 2, SubsPerTop: 2, FilesPerSub: 32})
	if err != nil {
		t.Fatal(err)
	}
	if pres := pt.Run(RunParams{}); math.IsNaN(pres.KResPerSec) || pres.KResPerSec <= 0 {
		t.Errorf("PathTree.Run(RunParams{}) = %v kres/s, want a positive rate", pres.KResPerSec)
	}
}

func TestExperimentDefaults(t *testing.T) {
	p := DefaultRunParams()
	p.Threads = 4
	p.Warmup = 200_000
	p.Measure = 400_000
	exp := Experiment{
		Machine: Small4,
		Tree:    DirSpec{Dirs: 2, EntriesPerDir: 64},
		Params:  p,
	}
	base, ct, err := exp.Compare()
	if err != nil {
		t.Fatal(err)
	}
	if base.Scheduler != "thread-scheduler" || ct.Scheduler != "coretime" {
		t.Errorf("Compare schedulers = %q/%q", base.Scheduler, ct.Scheduler)
	}
	if base.Resolutions == 0 || ct.Resolutions == 0 {
		t.Errorf("degenerate comparison: %+v %+v", base, ct)
	}
}

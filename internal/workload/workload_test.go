package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// smallSpec builds a tree big enough to overflow the Small() machine's
// caches (32 KB L3) but quick to simulate.
func smallSpec() DirSpec { return DirSpec{Dirs: 12, EntriesPerDir: 128} } // 48 KB

func smallParams() RunParams {
	p := DefaultRunParams()
	p.Threads = 4
	p.Warmup = 400_000
	p.Measure = 800_000
	return p
}

// newSystem builds an engine, a machine from cfg with the memory spec
// needs, and the substrate over them, for BuildEnvOn and BuildPathEnvOn.
func newSystem(t testing.TB, cfg topology.Config, spec interface{ ImageBytes() int }) *exec.System {
	t.Helper()
	m, err := machine.New(cfg, spec.ImageBytes())
	if err != nil {
		t.Fatal(err)
	}
	return exec.NewSystem(sim.NewEngine(), m, exec.DefaultOptions())
}

func TestBuildEnv(t *testing.T) {
	env, err := BuildEnvOn(newSystem(t, topology.Small(), smallSpec()), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Dirs) != 12 {
		t.Fatalf("built %d dirs, want 12", len(env.Dirs))
	}
	for i, d := range env.Dirs {
		if len(d.Names) != 128 {
			t.Fatalf("dir %d has %d names", i, len(d.Names))
		}
		if d.Obj.Size != 128*32 {
			t.Fatalf("dir %d object size %d, want %d", i, d.Obj.Size, 128*32)
		}
	}
	if err := env.FS.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildEnvRejectsBadSpec(t *testing.T) {
	if _, err := BuildEnvOn(newSystem(t, topology.Small(), DirSpec{}), DirSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestBaselineRunProducesResolutions(t *testing.T) {
	env, err := BuildEnvOn(newSystem(t, topology.Small(), smallSpec()), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := RunDirLookup(env, sched.ThreadScheduler{}, smallParams())
	if res.Resolutions == 0 {
		t.Fatal("no resolutions measured")
	}
	if res.Migrations != 0 {
		t.Fatalf("baseline migrated %d times", res.Migrations)
	}
	if res.KResPerSec <= 0 {
		t.Fatalf("KResPerSec = %v", res.KResPerSec)
	}
	// All threads made progress.
	for i, c := range res.PerThread {
		if c == 0 {
			t.Fatalf("thread %d starved", i)
		}
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	p := smallParams()
	run := func() uint64 {
		env, err := BuildEnvOn(newSystem(t, topology.Small(), smallSpec()), smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		return RunDirLookup(env, sched.ThreadScheduler{}, p).Resolutions
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical seeds produced %d and %d resolutions", a, b)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	env1, err := BuildEnvOn(newSystem(t, topology.Small(), smallSpec()), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams()
	a := RunDirLookup(env1, sched.ThreadScheduler{}, p)
	env2, err := BuildEnvOn(newSystem(t, topology.Small(), smallSpec()), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 99
	b := RunDirLookup(env2, sched.ThreadScheduler{}, p)
	if a.Resolutions == b.Resolutions {
		t.Log("note: different seeds produced identical counts (possible but unlikely)")
	}
}

func TestCoreTimeMigratesAndWins(t *testing.T) {
	// End-to-end sanity check of the paper's core claim on a scaled-down
	// multi-chip machine: when the directory set exceeds one chip's
	// caches, the baseline replicates it per chip and misses off-chip,
	// while CoreTime partitions it and wins. Directory size (16 KB) is
	// chosen so scan time dominates the ~2000-cycle migration, as in the
	// paper's 32 KB directories.
	spec := DirSpec{Dirs: 8, EntriesPerDir: 512} // 8 × 16 KB = 128 KB
	p := smallParams()
	p.Threads = 8

	envBase, err := BuildEnvOn(newSystem(t, topology.Tiny8(), spec), spec)
	if err != nil {
		t.Fatal(err)
	}
	base := RunDirLookup(envBase, sched.ThreadScheduler{}, p)

	envCT, err := BuildEnvOn(newSystem(t, topology.Tiny8(), spec), spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.RebalanceInterval = 200_000
	opts.DecayWindow = 0
	ct := RunDirLookup(envCT, core.New(envCT.Sys, opts), p)

	if ct.Migrations == 0 {
		t.Fatal("CoreTime never migrated")
	}
	t.Logf("baseline %.0f kres/s, coretime %.0f kres/s (%.2fx), %d migrations",
		base.KResPerSec, ct.KResPerSec, ct.KResPerSec/base.KResPerSec, ct.Migrations)
	if ct.KResPerSec <= base.KResPerSec {
		t.Fatalf("CoreTime (%.0f kres/s) did not beat baseline (%.0f kres/s)",
			ct.KResPerSec, base.KResPerSec)
	}
}

func TestOscillatingPopularityShrinksActiveSet(t *testing.T) {
	env, err := BuildEnvOn(newSystem(t, topology.Small(), smallSpec()), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams()
	p.Popularity = Oscillating
	p.OscillatePeriod = 100_000
	res := RunDirLookup(env, sched.ThreadScheduler{}, p)
	if res.Resolutions == 0 {
		t.Fatal("no resolutions under oscillating popularity")
	}
}

func TestEnvReuseAcrossRuns(t *testing.T) {
	env, err := BuildEnvOn(newSystem(t, topology.Small(), smallSpec()), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams()
	a := RunDirLookup(env, sched.ThreadScheduler{}, p)
	b := RunDirLookup(env, sched.ThreadScheduler{}, p)
	if a.Resolutions == 0 || b.Resolutions == 0 {
		t.Fatal("reused env produced no work")
	}
	// FlushAll between runs makes the second run start cold like the
	// first; with the same seed the counts must match exactly.
	if a.Resolutions != b.Resolutions {
		t.Fatalf("reused env diverged: %d vs %d", a.Resolutions, b.Resolutions)
	}
}

func TestDirSpecTotalBytes(t *testing.T) {
	spec := DirSpec{Dirs: 640, EntriesPerDir: 1000}
	if got := spec.TotalBytes(); got != 640*32000 {
		t.Fatalf("TotalBytes = %d, want %d", got, 640*32000)
	}
}

func TestRunParamsWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   RunParams
		want func(RunParams) bool
	}{
		{
			"zero value becomes DefaultRunParams",
			RunParams{},
			func(p RunParams) bool { return p == DefaultRunParams() },
		},
		{
			"partial params fill missing fields only",
			RunParams{Threads: 4, Seed: 9},
			func(p RunParams) bool {
				d := DefaultRunParams()
				return p.Threads == 4 && p.Seed == 9 &&
					p.Measure == d.Measure && p.OscillateDivisor == d.OscillateDivisor
			},
		},
		{
			"explicit zero warmup is preserved",
			RunParams{Threads: 8, Warmup: 0, Measure: 1000},
			func(p RunParams) bool { return p.Warmup == 0 && p.Measure == 1000 },
		},
		{
			"fully specified params pass through unchanged",
			DefaultRunParams(),
			func(p RunParams) bool { return p == DefaultRunParams() },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.WithDefaults(); !tc.want(got) {
				t.Errorf("WithDefaults(%+v) = %+v", tc.in, got)
			}
		})
	}
}

func TestSeedFallsBackToEngineSeed(t *testing.T) {
	// With RunParams.Seed zero, the driver derives its RNG from the
	// engine's base seed: different engine seeds give different runs,
	// equal engine seeds identical ones.
	run := func(engineSeed uint64) uint64 {
		m, err := machine.New(topology.Small(), smallSpec().ImageBytes())
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngineSeeded(engineSeed)
		env, err := BuildEnvOn(exec.NewSystem(eng, m, exec.DefaultOptions()), smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		p := smallParams()
		p.Seed = 0
		return RunDirLookup(env, sched.ThreadScheduler{}, p).Resolutions
	}
	a1, a2, b := run(1), run(1), run(2)
	if a1 != a2 {
		t.Errorf("equal engine seeds diverged: %d vs %d", a1, a2)
	}
	if a1 == b {
		t.Errorf("different engine seeds gave identical runs (%d)", a1)
	}
}

package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TestWholeStackStress drives randomized machine geometries and workload
// shapes through both schedulers and checks the structural invariants that
// must survive any configuration:
//
//   - the machine model's directory/cache agreement, inclusion, and owner
//     validity (machine.CheckInvariants);
//   - CoreTime's budget accounting (no core over budget, loads
//     non-negative);
//   - liveness (every thread resolves something);
//   - determinism (same seed ⇒ identical resolution counts).
func TestWholeStackStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	master := stats.NewRNG(20260610)
	for trial := 0; trial < 6; trial++ {
		rng := master.Split()

		cfg := randomConfig(rng)
		spec := DirSpec{
			Dirs:          4 + rng.Intn(24),
			EntriesPerDir: 64 * (1 + rng.Intn(8)),
		}
		p := DefaultRunParams()
		p.Threads = 1 + rng.Intn(2*cfg.NumCores())
		p.Warmup = 200_000
		p.Measure = 600_000
		p.Seed = rng.Uint64()
		switch rng.Intn(3) {
		case 1:
			p.Popularity = Oscillating
			p.OscillatePeriod = 150_000
		case 2:
			p.Popularity = Hotspot
			p.HotDirs = 1 + rng.Intn(4)
			p.HotFraction = 0.5 + rng.Float64()/2
		}

		t.Logf("trial %d: %s, %d dirs × %d entries, %d threads, popularity %d",
			trial, cfg.Name, spec.Dirs, spec.EntriesPerDir, p.Threads, p.Popularity)

		for _, useCT := range []bool{false, true} {
			run := func() (Result, *core.Runtime, *Env) {
				env, err := BuildEnvOn(newSystem(t, cfg, spec), spec)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				var ann sched.Annotator = sched.ThreadScheduler{}
				var rt *core.Runtime
				if useCT {
					opts := core.DefaultOptions()
					opts.RebalanceInterval = 100_000
					opts.DecayWindow = 300_000
					rt = core.New(env.Sys, opts)
					ann = rt
				}
				return RunDirLookup(env, ann, p), rt, env
			}

			res, rt, env := run()
			if res.Resolutions == 0 {
				t.Fatalf("trial %d (ct=%v): no work done", trial, useCT)
			}
			for i, c := range res.PerThread {
				if c == 0 {
					t.Errorf("trial %d (ct=%v): thread %d starved", trial, useCT, i)
				}
			}
			if err := env.Mach.CheckInvariants(); err != nil {
				t.Fatalf("trial %d (ct=%v): %v", trial, useCT, err)
			}
			if rt != nil {
				for c := 0; c < cfg.NumCores(); c++ {
					load := rt.CoreLoad(c)
					if load < 0 || load > rt.Budget() {
						t.Fatalf("trial %d: core %d load %d outside [0,%d]",
							trial, c, load, rt.Budget())
					}
				}
			}

			// Determinism: an identical rebuild+rerun must agree.
			res2, _, _ := run()
			if res2.Resolutions != res.Resolutions {
				t.Fatalf("trial %d (ct=%v): nondeterministic: %d vs %d",
					trial, useCT, res.Resolutions, res2.Resolutions)
			}
		}
	}
}

// randomConfig varies the machine while keeping it valid: chips on a
// rectangular grid, power-of-two cache geometry.
func randomConfig(rng *stats.RNG) topology.Config {
	grids := [][2]int{{1, 1}, {2, 1}, {2, 2}}
	g := grids[rng.Intn(len(grids))]
	cfg := topology.Config{
		Name:         "stress",
		Chips:        g[0] * g[1],
		CoresPerChip: 1 + rng.Intn(4),
		GridW:        g[0],
		GridH:        g[1],
		L1:           topology.CacheGeom{Size: 1 << 10, LineSize: 64, Assoc: 2},
		L2:           topology.CacheGeom{Size: 8 << uint(10+rng.Intn(2)), LineSize: 64, Assoc: 8},
		L3:           topology.CacheGeom{Size: 32 << 10, LineSize: 64, Assoc: 8},
		Lat:          topology.AMDLatencies(),
		ClockHz:      2e9,
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return cfg
}

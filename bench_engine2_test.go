// Engine speed round 2 benchmarks: the arena-reset sweep unit, the
// WebService steady state, and the million-request soak drive.
// Their before/after history is in CHANGES.md; hostbench/ is the harness
// that measures the simulator end to end.
//
// BenchmarkFig4Cell (bench_hotpath_test.go) times the cold unit — build a
// runtime and tree, run once. The sweep no longer pays that per repeat:
// repeats after the first roll the runtime back to its post-build image
// mark. BenchmarkFig4CellArena times exactly what one sweep worker now
// does per repeat, by driving b.N repeats of one cell through Sweep.Run.
package repro_test

import (
	"testing"

	"repro/o2"
)

// fig4BenchCell is the same cell BenchmarkFig4Cell measures, as sweep
// configuration: tiny8, 8 dirs × 512 entries, CoreTime.
func fig4BenchCell() o2.Sweep {
	p := o2.DefaultRunParams()
	p.Threads = 8
	p.Warmup = 400_000
	p.Measure = 800_000
	return o2.Sweep{
		Name: "bench",
		Base: o2.Cell{
			Machine:   o2.Tiny8,
			Scheduler: o2.CoreTime,
			Tree:      o2.DirSpec{Dirs: 8, EntriesPerDir: 512},
			Params:    p,
		},
		Seed:    7,
		Workers: 1,
		Runner:  o2.DirLookupCell,
	}
}

// BenchmarkFig4CellArena measures the steady-state sweep unit: one
// Figure-4 repeat on an arena-reused runtime (engine reset, image rolled
// back to the post-build mark, caches flushed) instead of a fresh build.
func BenchmarkFig4CellArena(b *testing.B) {
	s := fig4BenchCell()
	s.Repeats = b.N
	b.ReportAllocs()
	b.ResetTimer()
	res, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	if res.Cells[0].Mean("kres_per_sec") <= 0 {
		b.Fatal("benchmark produced no resolutions")
	}
}

// BenchmarkWebCellArena measures the WebService steady state the same
// way: one open-loop run per repeat on an arena-reused runtime.
func BenchmarkWebCellArena(b *testing.B) {
	s := o2.Sweep{
		Name: "bench-web",
		Base: o2.Cell{
			Machine:   o2.Tiny8,
			Scheduler: o2.CoreTime,
			Web:       o2.WebSpec{DocRoots: 24, FilesPerRoot: 128},
			Service:   o2.ServiceLoad{Requests: 800, RPS: 1_000_000, Skew: 0.99},
		},
		Seed:    7,
		Workers: 1,
		Runner:  o2.ServiceCell,
	}
	s.Repeats = b.N
	b.ReportAllocs()
	b.ResetTimer()
	res, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	if res.Cells[0].Mean("achieved_krps") <= 0 {
		b.Fatal("benchmark served nothing")
	}
}

// soakDrive is the shared body of the SoakDrive benchmarks: the
// WebService drive per request — the unit cost behind `o2bench
// soak`, where a million requests flow through one chained arrival event
// and a parked-worker wait list. Extra options select the telemetry
// variants.
func soakDrive(b *testing.B, opts ...o2.Option) {
	rt := o2.MustNew(append([]o2.Option{o2.WithTopology(o2.Tiny8), o2.WithSeed(7)}, opts...)...)
	svc, err := rt.NewWebService(o2.WebSpec{DocRoots: 24, FilesPerRoot: 128})
	if err != nil {
		b.Fatal(err)
	}
	load := o2.ServiceLoad{
		Requests: b.N,
		RPS:      1_000_000,
		Skew:     0.99,
		Seed:     7,
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := svc.Run(load)
	if err != nil {
		b.Fatal(err)
	}
	if res.Completed == 0 {
		b.Fatal("benchmark served nothing")
	}
}

// BenchmarkSoakDrive is the telemetry-off baseline: 0 allocs/request
// (pinned by TestSoakDriveAllocFree).
func BenchmarkSoakDrive(b *testing.B) {
	soakDrive(b)
}

// BenchmarkSoakDriveTelemetry is the same drive with the telemetry
// sampler probing every 20k cycles, the enabled overhead (CHANGES.md,
// telemetry entry). The probe path is allocation-free (o2lint
// hotalloc-enforced), so the delta is pure sampling CPU.
func BenchmarkSoakDriveTelemetry(b *testing.B) {
	soakDrive(b, o2.WithTelemetry(20_000))
}

// TestSoakDriveAllocFree pins the acceptance criterion that telemetry —
// off or on — adds 0 allocs/request on the soak drive. Per-run setup
// (the arrival schedule, worker spawns, histogram warm-up) allocates a
// small request-count-independent amount, so driving 20k requests and
// asserting a small per-run total proves the per-request path is
// allocation-free.
func TestSoakDriveAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting needs the full drive")
	}
	const requests = 20_000
	for _, tc := range []struct {
		name string
		opts []o2.Option
	}{
		{"telemetry-off", nil},
		{"telemetry-on", []o2.Option{o2.WithTelemetry(20_000)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := o2.MustNew(append([]o2.Option{o2.WithTopology(o2.Tiny8), o2.WithSeed(7)}, tc.opts...)...)
			svc, err := rt.NewWebService(o2.WebSpec{DocRoots: 24, FilesPerRoot: 128})
			if err != nil {
				t.Fatal(err)
			}
			load := o2.ServiceLoad{
				Requests: requests, RPS: 1_000_000, Skew: 0.99, Seed: 7,
			}
			// Warm once: scratch tables, pools, and recorder capacity reach
			// their steady state on the first run.
			if _, err := svc.Run(load); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := svc.Run(load); err != nil {
					t.Fatal(err)
				}
			})
			// The per-run constant covers the arrival-schedule slices and
			// the 8 worker/compactor thread spawns, which reuse pooled
			// carriers: measured at exactly 94 whether the drive carries
			// 5k, 20k, or 80k requests — hence 0 allocs amortized per
			// request.
			const perRunBudget = 150
			if allocs > perRunBudget {
				t.Fatalf("%s: %v allocs for a %d-request drive (budget %d): the per-request path allocates",
					tc.name, allocs, requests, perRunBudget)
			}
		})
	}
}

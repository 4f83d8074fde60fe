// Hot-path benchmarks for the simulator itself (as opposed to the
// paper-figure benchmarks in bench_test.go): BenchmarkFig4Cell times one
// grid cell of the Figure-4 sweep end to end, the unit of work the sweep
// engine parallelizes. Before/after numbers for the memory-data-path
// refactor are in CHANGES.md; hostbench/ is the harness that
// measures the simulator end to end.
package repro_test

import (
	"testing"

	"repro/o2"
)

// BenchmarkFig4Cell measures a single Figure-4 sweep cell on the tiny8
// machine: build the directory tree, run baseline and CoreTime
// measurements, exactly as one worker of the sweep engine would.
func BenchmarkFig4Cell(b *testing.B) {
	exp := o2.Experiment{
		Machine: o2.Tiny8,
		Tree:    o2.DirSpec{Dirs: 8, EntriesPerDir: 512},
	}
	p := o2.DefaultRunParams()
	p.Threads = 8
	p.Warmup = 400_000
	p.Measure = 800_000
	p.Seed = 7
	exp.Params = p
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(o2.WithScheduler(o2.CoreTime))
		if err != nil {
			b.Fatal(err)
		}
		sink += res.KResPerSec
	}
	if sink == 0 {
		b.Fatal("benchmark produced no resolutions")
	}
}

// Big-machine benchmarks for the simulator itself: what one scale-sweep
// cell costs at 16 versus 256 cores. The scale round's acceptance gate is
// that the *per-core* simulator cost at 256 cores stays within 2x of the
// 16-core cost — i.e. the multi-word coherence directory, the saturating
// bandwidth meters, and the wide invalidation fan-out add per-node work
// that is at most linear in the machine size. Before/after numbers are in
// CHANGES.md (big-machine scaling round); hostbench/ measures the scale
// workload end to end.
package repro_test

import (
	"testing"

	"repro/o2"
)

// benchScaleCell times one dirlookup cell of the scale sweep on the given
// machine: workload sized per core (2 directories of 64 entries per core,
// one worker thread per core, the golden scale configuration's shape) and
// run under CoreTime, exactly as one worker of `o2bench scale` would run
// it. Dividing the reported ns/op by the core count gives the per-core
// simulator cost the acceptance gate compares.
func benchScaleCell(b *testing.B, machine o2.Topology) {
	cores := machine.NumCores()
	exp := o2.Experiment{
		Machine: machine,
		Tree:    o2.DirSpec{Dirs: 2 * cores, EntriesPerDir: 64},
	}
	p := o2.DefaultRunParams()
	p.Threads = cores
	p.Warmup = 100_000
	p.Measure = 200_000
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

// BenchmarkScaleCell16 is the 16-core reference point (the paper's AMD16
// machine: narrow one-word directory, legacy bandwidth meters).
func BenchmarkScaleCell16(b *testing.B) { benchScaleCell(b, o2.AMD16) }

// BenchmarkScaleCell256 is the 256-core point (NUMA256: 288 directory
// nodes on the five-word sharer bitset, saturating DRAM and interconnect
// meters on every miss).
func BenchmarkScaleCell256(b *testing.B) { benchScaleCell(b, o2.NUMA256) }

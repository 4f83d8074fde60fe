package machine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkL1Hit measures the common-case access: a load that hits the
// core's L1. This is the fast path the hot-path refactor keeps
// allocation-free (the acceptance gate is 0 allocs/op).
func BenchmarkL1Hit(b *testing.B) {
	m := MustNew(topology.Tiny8(), 1<<20)
	const addr = mem.Addr(4096)
	at := sim.Time(0)
	at += m.Access(0, addr, false, at) // prime: L1 now holds the line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += m.Access(0, addr, false, at)
	}
}

// BenchmarkL1HitStore measures the store fast path: an L1 hit by the line's
// existing sole owner, which still has to consult the coherence directory.
func BenchmarkL1HitStore(b *testing.B) {
	m := MustNew(topology.Tiny8(), 1<<20)
	const addr = mem.Addr(4096)
	at := sim.Time(0)
	at += m.Access(0, addr, true, at) // prime: core 0 owns the line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += m.Access(0, addr, true, at)
	}
}

// BenchmarkRemoteMiss measures the coherence slow path: two cores on
// different chips ping-ponging one line, so every access is a remote fetch
// or an invalidating write.
func BenchmarkRemoteMiss(b *testing.B) {
	cfg := topology.Tiny8()
	m := MustNew(cfg, 1<<20)
	writer, reader := 0, cfg.CoresPerChip // first cores of chips 0 and 1
	const addr = mem.Addr(4096)
	at := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += m.Access(writer, addr, true, at)  // invalidates reader's copy
		at += m.Access(reader, addr, false, at) // remote fetch from writer's chip
	}
}

// BenchmarkAccessRangeScan measures the line-batched range path the
// execution substrate's cost batches drive: one 512-byte sector load per
// iteration, the granularity of the FAT lookup loop.
func BenchmarkAccessRangeScan(b *testing.B) {
	m := MustNew(topology.Tiny8(), 1<<20)
	const base = mem.Addr(8192)
	at := sim.Time(0)
	at += m.AccessRange(0, base, 512, false, at) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += m.AccessRange(0, base, 512, false, at)
	}
}

// wideFanOutMachine primes a NUMA256 machine so one line is shared by
// every core, returning the machine and the writing core's next issue
// time. Each benchmark iteration re-shares and re-collapses the set.
func wideFanOutMachine(b *testing.B) (*Machine, sim.Time) {
	b.Helper()
	m := MustNew(topology.NUMA256(), 1<<24)
	const addr = mem.Addr(4096)
	at := sim.Time(0)
	for core := 0; core < m.NumCores(); core++ {
		at += sim.Time(m.Access(core, addr, false, at))
	}
	return m, at
}

// BenchmarkWideInvalidationFanOut measures the 256-core store slow path:
// one write collapsing a holder set that spans all five directory words,
// then the readers re-sharing the line. This is the path the multi-word
// bitset keeps allocation-free; TestWideFanOutAllocs pins 0 allocs/op.
func BenchmarkWideInvalidationFanOut(b *testing.B) {
	m, at := wideFanOutMachine(b)
	const addr = mem.Addr(4096)
	ncores := m.NumCores()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += sim.Time(m.Access(0, addr, true, at)) // invalidate all sharers
		for core := 1; core < ncores; core++ {
			at += sim.Time(m.Access(core, addr, false, at)) // re-share
		}
	}
}

// TestWideFanOutAllocs is the allocation gate on the 256-core
// invalidation fan-out: the whole share/collapse cycle — wide directory
// probes, word-scratch copies, cross-word cache invalidations — must not
// allocate.
func TestWideFanOutAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := MustNew(topology.NUMA256(), 1<<24)
	const addr = mem.Addr(4096)
	var at sim.Time
	for core := 0; core < m.NumCores(); core++ {
		at += sim.Time(m.Access(core, addr, false, at))
	}
	ncores := m.NumCores()
	allocs := testing.AllocsPerRun(50, func() {
		at += sim.Time(m.Access(0, addr, true, at))
		for core := 1; core < ncores; core++ {
			at += sim.Time(m.Access(core, addr, false, at))
		}
	})
	if allocs != 0 {
		t.Fatalf("wide invalidation fan-out allocates %.1f times per cycle, want 0", allocs)
	}
}

// dropLine discards core's clean copy of l without spilling it to the
// L3, so core's next access to l misses L2 again and the directory
// agrees.
func (m *Machine) dropLine(core int, l cache.Line) {
	m.l1[core].Remove(l)
	m.l2[core].Remove(l)
	m.dir.RemoveSharer(l, m.coreNode(core))
}

// spillLine evicts core's clean copy of l into its chip's victim L3, the
// path an L2 victim takes.
func (m *Machine) spillLine(core int, l cache.Line) {
	m.l1[core].Remove(l)
	m.l2[core].Remove(l)
	m.spillToL3(m.chipOf[core], m.coreNode(core), l, false, m.ctr.Core(core))
}

// l2MissFills are the BenchmarkL2MissFill cases. Each setup primes a
// machine and returns one iteration: an access that misses L2 and is
// filled one way, then the eviction that makes the next access miss L2
// the same way.
var l2MissFills = []struct {
	name  string
	setup func() func()
}{
	{"amd16-remote", func() func() {
		// Core 0 (chip 0) holds the line; core 4 (chip 1) misses L2
		// and L3 and fetches it from core 0.
		m := MustNew(topology.AMD16(), 1<<20)
		const addr, reader = mem.Addr(4096), 4
		l := cache.LineOf(addr, m.LineSize())
		at := sim.Time(m.Access(0, addr, false, 0))
		return func() {
			at += m.Access(reader, addr, false, at)
			m.dropLine(reader, l)
		}
	}},
	{"amd16-l3-hit", func() func() {
		// The line sits in chip 0's victim L3; core 0 promotes it back
		// and evicts it into the L3 again.
		m := MustNew(topology.AMD16(), 1<<20)
		const addr = mem.Addr(4096)
		l := cache.LineOf(addr, m.LineSize())
		at := sim.Time(m.Access(0, addr, false, 0))
		m.spillLine(0, l)
		return func() {
			at += m.Access(0, addr, false, at)
			m.spillLine(0, l)
		}
	}},
	{"numa256-wide", func() func() {
		// Every core of chips 0-30 holds the line, so the holder set
		// spans all five directory words; core 255 (chip 31) joins and
		// scans the set for the nearest holder.
		m := MustNew(topology.NUMA256(), 1<<20)
		const addr = mem.Addr(4096)
		reader := m.NumCores() - 1
		l := cache.LineOf(addr, m.LineSize())
		var at sim.Time
		for core := 0; core < reader-7; core++ {
			at += m.Access(core, addr, false, at)
		}
		return func() {
			at += m.Access(reader, addr, false, at)
			m.dropLine(reader, l)
		}
	}},
}

// BenchmarkL2MissFill measures the directory-guided L2-miss fill: one
// directory join decides between the chip's L3, a remote cache and DRAM.
// The iteration includes the eviction that re-arms the miss.
func BenchmarkL2MissFill(b *testing.B) {
	for _, fc := range l2MissFills {
		b.Run(fc.name, func(b *testing.B) {
			step := fc.setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestL2MissFillAllocs is the allocation gate on the L2-miss fill: every
// BenchmarkL2MissFill case must run at 0 allocs/op.
func TestL2MissFillAllocs(t *testing.T) {
	for _, fc := range l2MissFills {
		step := fc.setup()
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%s: %.1f allocs per fill, want 0", fc.name, allocs)
		}
	}
}

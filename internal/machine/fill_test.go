package machine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// These tests pin the directory-guided L2-miss fill: the holder set the
// directory join returns, not an L3 set scan, decides whether a miss hits
// the chip's victim L3, comes from a remote cache, or goes to DRAM.

// streamBase is where the directed tests' eviction streams start, far
// from the lines under test.
const streamBase = mem.Addr(64 << 20)

// evictToL3 streams distinct lines through core until line l has left the
// core's L2 and sits in its chip's L3, and returns the next issue time.
// next is the first stream line to use; it advances past the lines used.
func evictToL3(t *testing.T, m *Machine, core int, l cache.Line, next *mem.Addr, at sim.Time) sim.Time {
	t.Helper()
	chip := m.ChipOf(core)
	limit := 4 * m.L2(core).CapacityLines()
	for i := 0; i < limit; i++ {
		if !m.L2(core).Contains(l) {
			if !m.L3(chip).Contains(l) {
				t.Fatalf("line %d left core %d's L2 but is not in chip %d's L3", l, core, chip)
			}
			return at
		}
		at += m.Access(core, *next, false, at)
		*next += mem.Addr(m.LineSize())
	}
	t.Fatalf("line %d still in core %d's L2 after %d streamed lines", l, core, limit)
	return at
}

// l3Copies counts resident copies of l in cache c.
func l3Copies(c *cache.Cache, l cache.Line) int {
	n := 0
	for _, x := range c.Lines() {
		if x == l {
			n++
		}
	}
	return n
}

func TestL3HitOnDirtyVictim(t *testing.T) {
	m := newAMD(t)
	const addr = mem.Addr(4096)
	l := cache.LineOf(addr, m.LineSize())
	l3node := m.l3Node(0)
	at := sim.Time(m.Access(0, addr, true, 0)) // core 0 owns l dirty
	next := streamBase
	at = evictToL3(t, m, 0, l, &next, at)
	if !m.L3(0).IsDirty(l) || m.Directory().Owner(l) != l3node {
		t.Fatalf("dirty victim in L3: dirty=%v owner=%d, want dirty, owner %d",
			m.L3(0).IsDirty(l), m.Directory().Owner(l), l3node)
	}

	before := m.Counters().Snapshot(1)
	lat := m.Access(1, addr, false, at) // core 1, same chip: L3 hit
	if lat != m.cfg.Lat.L3Hit {
		t.Fatalf("L3 hit latency = %d, want %d", lat, m.cfg.Lat.L3Hit)
	}
	if d := m.Counters().Snapshot(1).Sub(before); d.L3Loads != 1 || d.RemoteFetches != 0 || d.DRAMLoads != 0 {
		t.Fatalf("L3 hit counted as %+v", d)
	}
	// The promoted copy keeps its dirty bit; the directory drops the
	// owner, since the L3 that owned the line no longer holds it.
	if !m.L2(1).IsDirty(l) {
		t.Fatal("line promoted from L3 lost its dirty bit")
	}
	if m.L3(0).Contains(l) {
		t.Fatal("exclusive L3 still holds the promoted line")
	}
	if o := m.Directory().Owner(l); o != coherence.NoOwner {
		t.Fatalf("owner after L3 hit = %d, want none", o)
	}
	if hs := m.Directory().Holders(l); len(hs) != 1 || hs[0] != m.coreNode(1) {
		t.Fatalf("holders after L3 hit = %v, want [1]", hs)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedLineEvictedByTwoCoresKeepsOneL3Copy(t *testing.T) {
	m := newAMD(t)
	const addr = mem.Addr(4096)
	l := cache.LineOf(addr, m.LineSize())
	l3 := m.L3(0)
	at := sim.Time(m.Access(0, addr, false, 0))
	at += m.Access(1, addr, false, at) // cores 0 and 1 (chip 0) share l
	next := streamBase
	at = evictToL3(t, m, 0, l, &next, at)

	// Core 1 now evicts its copy into an L3 that already holds l: the
	// spill must refresh the resident copy, not add a second one.
	limit := 4 * m.L2(1).CapacityLines()
	for i := 0; m.L2(1).Contains(l); i++ {
		if i == limit {
			t.Fatalf("core 1 never evicted line %d", l)
		}
		if !l3.Contains(l) {
			t.Fatalf("L3 lost line %d before core 1's eviction; the held branch is not exercised", l)
		}
		at += m.Access(1, next, false, at)
		next += mem.Addr(m.LineSize())
	}
	if got := l3Copies(l3, l); got != 1 {
		t.Fatalf("L3 holds %d copies of line %d, want 1", got, l)
	}
	if got, want := l3.Len(), len(l3.Lines()); got != want {
		t.Fatalf("L3 Len = %d, resident lines %d", got, want)
	}
	if hs := m.Directory().Holders(l); len(hs) != 1 || hs[0] != m.l3Node(0) {
		t.Fatalf("holders = %v, want only the chip 0 L3", hs)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLineInOtherChipL3IsRemoteFetch(t *testing.T) {
	m := newAMD(t)
	const addr = mem.Addr(4096)
	l := cache.LineOf(addr, m.LineSize())
	at := sim.Time(m.Access(0, addr, false, 0))
	next := streamBase
	at = evictToL3(t, m, 0, l, &next, at)

	const reader = 4 // first core of chip 1
	local := m.L3(1)
	beforeLines, beforeLen := local.Lines(), local.Len()
	before := m.Counters().Snapshot(reader)
	lat := m.Access(reader, addr, false, at)
	if want := m.cfg.RemoteCacheLatency(1, 0); lat != want {
		t.Fatalf("fetch from chip 0's L3 = %d cycles, want remote %d", lat, want)
	}
	if d := m.Counters().Snapshot(reader).Sub(before); d.RemoteFetches != 1 || d.L3Loads != 0 || d.L3Miss != 1 {
		t.Fatalf("remote fetch counted as %+v", d)
	}
	afterLines := local.Lines()
	if local.Len() != beforeLen || len(afterLines) != len(beforeLines) {
		t.Fatalf("local L3 changed: %d -> %d lines", beforeLen, local.Len())
	}
	for i := range afterLines {
		if afterLines[i] != beforeLines[i] {
			t.Fatal("local L3 contents changed on a remote fetch")
		}
	}
	if !m.L3(0).Contains(l) {
		t.Fatal("remote fetch removed the source L3's copy")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// wideTiny is a 144-node machine (128 cores + 16 chip L3s, three holder
// words) with Tiny8's kilobyte caches, so random traffic evicts through
// every level and holder sets span directory words.
func wideTiny() topology.Config {
	cfg := topology.NUMA128()
	tiny := topology.Tiny8()
	cfg.L1, cfg.L2, cfg.L3 = tiny.L1, tiny.L2, tiny.L3
	return cfg
}

// TestFillPropertyRandomTraffic drives seeded random loads and stores on
// a narrow and a wide directory and, after every batch, checks the
// structural invariants and that every miss is accounted for exactly
// once at each level.
func TestFillPropertyRandomTraffic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  topology.Config
	}{
		{"tiny8", topology.Tiny8()},
		{"wide144", wideTiny()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if wide := m.Directory().NumWords() > 1; wide != (tc.name == "wide144") {
				t.Fatalf("NumWords = %d", m.Directory().NumWords())
			}
			ncores := m.NumCores()
			rng := stats.NewRNG(0xF111)
			var at sim.Time
			for batch := 0; batch < 10; batch++ {
				for i := 0; i < 4000; i++ {
					core := rng.Intn(ncores)
					addr := mem.Addr(rng.Intn(256 << 10))
					at += m.Access(core, addr, rng.Intn(4) == 0, at)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				for core := 0; core < ncores; core++ {
					c := m.Counters().Snapshot(core)
					if c.L1Miss != c.L2Loads+c.L2Miss || c.L2Miss != c.L3Loads+c.L3Miss ||
						c.L3Miss != c.RemoteFetches+c.DRAMLoads {
						t.Fatalf("batch %d core %d: miss accounting broken: %+v", batch, core, c)
					}
				}
			}
			if c := m.Counters().Total(); c.L3Loads == 0 || c.RemoteFetches == 0 || c.DRAMLoads == 0 {
				t.Fatalf("traffic missed a fill outcome: L3 %d, remote %d, DRAM %d", c.L3Loads, c.RemoteFetches, c.DRAMLoads)
			}
		})
	}
}

package machine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// These tests cover the big-machine additions: the node-count construction
// guard, the saturating bandwidth meters, the wide-directory fan-out
// paths, and full Reset of the new queueing state.

// TestNewRejectsOverwideMachine pins the construction guard that replaced
// the old 64-node directory cap: a machine whose cores+chips exceed the
// sharer bitset's maximum must fail loudly at New, not alias holder bits.
func TestNewRejectsOverwideMachine(t *testing.T) {
	cfg := topology.NUMA256()
	cfg.Chips = 128 // 1024 cores + 128 chips, way past MaxNodes
	cfg.GridW, cfg.GridH = 16, 8
	if _, err := New(cfg, 1<<20); err == nil {
		t.Fatalf("New accepted a machine with %d directory nodes (max %d)",
			cfg.NumCores()+cfg.Chips, coherence.MaxNodes)
	}
}

// TestNewRejectsOversizedImage: the directory is indexed by line number,
// so an image with more lines than coherence.MaxLines is refused when the
// machine is built instead of panicking mid-run.
func TestNewRejectsOversizedImage(t *testing.T) {
	cfg := topology.AMD16()
	limit := coherence.MaxLines * cfg.L1.LineSize
	if _, err := NewWithMemLimit(cfg, 1<<20, limit+1); err == nil {
		t.Fatalf("NewWithMemLimit accepted a %d-byte image limit", limit+1)
	}
	if _, err := NewWithMemLimit(cfg, 1<<20, limit); err != nil {
		t.Fatalf("NewWithMemLimit refused an image of exactly MaxLines lines: %v", err)
	}
}

// TestNUMAPresetsBuild proves each NUMA preset validates and constructs,
// with the directory width the preset implies.
func TestNUMAPresetsBuild(t *testing.T) {
	for _, tc := range []struct {
		cfg    topology.Config
		cores  int
		nwords int
	}{
		{topology.NUMA64(), 64, 2},   // 64 cores + 8 L3s = 72 nodes
		{topology.NUMA128(), 128, 3}, // 144 nodes
		{topology.NUMA256(), 256, 5}, // 288 nodes
	} {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			m, err := New(tc.cfg, 1<<20)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if m.NumCores() != tc.cores {
				t.Fatalf("NumCores = %d, want %d", m.NumCores(), tc.cores)
			}
			if w := m.Directory().NumWords(); w != tc.nwords {
				t.Fatalf("directory NumWords = %d, want %d", w, tc.nwords)
			}
			if m.link == nil {
				t.Fatal("NUMA preset built without interconnect meters")
			}
		})
	}
}

// TestWideMachineCoherence drives a 256-core machine through a
// shared-line workload wide enough that holder sets cross word
// boundaries — every core reads one line, then one core writes it — and
// checks the cross-word invalidation fan-out plus the structural
// invariants.
func TestWideMachineCoherence(t *testing.T) {
	cfg := topology.NUMA256()
	m, err := New(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const addr = mem.Addr(4096)
	at := sim.Time(0)
	for core := 0; core < m.NumCores(); core++ {
		at += sim.Time(m.Access(core, addr, false, at))
	}
	l := cache.LineOf(addr, m.LineSize())
	if got := m.Directory().SharerCount(l); got != m.NumCores() {
		t.Fatalf("SharerCount = %d after all-core read, want %d", got, m.NumCores())
	}
	// One store must collapse the whole 256-core sharer set.
	m.Access(17, addr, true, at)
	if got := m.Directory().SharerCount(l); got != 1 {
		t.Fatalf("SharerCount = %d after store, want 1", got)
	}
	if !m.Directory().Holds(l, coherence.Node(17)) {
		t.Fatal("writer lost its own copy")
	}
	if got := m.Counters().Total().Invalidations; got != uint64(m.NumCores()-1) {
		t.Fatalf("Invalidations = %d, want %d", got, m.NumCores()-1)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSaturatingMetersChargeAndReset drives a machine's DRAM controllers
// past capacity, checks that bw-stall counters record the queueing and
// that the backlog carries into the next accounting window, then proves
// Machine.Reset returns the meters to a state byte-identical to a fresh
// machine's: replaying the same access schedule yields the same latencies
// and counters. AMD16 is the paper's machine; NUMA64 adds link meters.
func TestSaturatingMetersChargeAndReset(t *testing.T) {
	for _, cfg := range []topology.Config{topology.AMD16(), topology.NUMA64()} {
		t.Run(cfg.Name, func(t *testing.T) {
			run := func(m *Machine) (total sim.Cycles) {
				// A strided read sweep much larger than the caches, issued
				// at a single timestamp so offered traffic lands in one
				// accounting window and saturates the controllers.
				base := mem.Addr(1 << 16)
				for i := 0; i < 20_000; i++ {
					addr := base + mem.Addr(i*m.LineSize())
					total += m.Access(i%m.NumCores(), addr, false, 0)
				}
				return total
			}
			fresh, err := New(cfg, 1<<26)
			if err != nil {
				t.Fatal(err)
			}
			want := run(fresh)
			if q := fresh.Counters().Total().DRAMQueueCycles; q == 0 {
				t.Fatal("saturating sweep charged no DRAM queueing")
			}
			wantCtr := fresh.Counters().Total()

			// One more DRAM fill in the next window queues behind the
			// backlog the saturated window left unserved.
			next := mem.Addr(1<<16 + 20_000*fresh.LineSize())
			fresh.Access(0, next, false, sim.Time(bwWindow))
			if q := fresh.Counters().Total().DRAMQueueCycles; q == wantCtr.DRAMQueueCycles {
				t.Fatal("backlog of a saturated window did not carry into the next one")
			}

			// Same machine, after Reset: must replay identically.
			fresh.Reset()
			if got := run(fresh); got != want {
				t.Fatalf("post-Reset replay cost %d cycles, fresh run cost %d", got, want)
			}
			if got := fresh.Counters().Total(); got != wantCtr {
				t.Fatalf("post-Reset counters diverge:\n got %+v\nwant %+v", got, wantCtr)
			}
		})
	}
}

// TestLinkMeterCharges proves cross-socket traffic queues at the
// interconnect port when LinkServiceInterval is set, and that the same
// schedule on a topology without link metering charges none.
func TestLinkMeterCharges(t *testing.T) {
	crossSocketSweep := func(cfg topology.Config) uint64 {
		m := MustNew(cfg, 1<<26)
		// Core 0 reads lines homed on every other chip, all at t=0: every
		// fill is a remote-home DRAM fetch through that chip's port.
		for i := 0; i < 10_000; i++ {
			m.Access(0, mem.Addr(1<<16+i*m.LineSize()), false, 0)
		}
		return m.Counters().Total().LinkQueueCycles
	}
	if q := crossSocketSweep(topology.NUMA64()); q == 0 {
		t.Fatal("NUMA64 cross-socket sweep charged no link queueing")
	}
	if q := crossSocketSweep(topology.AMD16()); q != 0 {
		t.Fatalf("AMD16 (no link model) charged %d link-queue cycles", q)
	}
}

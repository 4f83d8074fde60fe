package exec

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

func newSys(t testing.TB) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine()
	m, err := machine.New(topology.AMD16(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return eng, NewSystem(eng, m, DefaultOptions())
}

func TestComputeAdvancesTime(t *testing.T) {
	eng, s := newSys(t)
	var end sim.Time
	s.Go("worker", 0, func(th *Thread) {
		th.Compute(1234)
		end = th.Now()
	})
	eng.Run(0)
	if end != 1234 {
		t.Fatalf("end = %d, want 1234", end)
	}
	if got := s.Machine().Counters().Snapshot(0).BusyCycles; got != 1234 {
		t.Fatalf("BusyCycles = %d, want 1234", got)
	}
}

func TestLoadChargesMemoryLatency(t *testing.T) {
	eng, s := newSys(t)
	var first, second sim.Time
	s.Go("worker", 0, func(th *Thread) {
		start := th.Now()
		th.Load(4096, 64)
		first = th.Now() - start
		start = th.Now()
		th.Load(4096, 64)
		second = th.Now() - start
	})
	eng.Run(0)
	lat := s.Machine().Config().Lat
	if first < lat.DRAMLocal {
		t.Fatalf("cold load %d cycles, want >= DRAM %d", first, lat.DRAMLocal)
	}
	if second != lat.L1Hit {
		t.Fatalf("warm load %d cycles, want L1 %d", second, lat.L1Hit)
	}
}

func TestTwoThreadsShareCoreFIFO(t *testing.T) {
	eng, s := newSys(t)
	var order []string
	s.Go("a", 0, func(th *Thread) {
		for i := 0; i < 2; i++ {
			th.Compute(100)
			order = append(order, "a")
			th.Yield()
		}
	})
	s.Go("b", 0, func(th *Thread) {
		for i := 0; i < 2; i++ {
			th.Compute(100)
			order = append(order, "b")
			th.Yield()
		}
	})
	eng.Run(0)
	want := []string{"a", "b", "a", "b"}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (FIFO yield)", order, want)
		}
	}
	// Core time must be serialized: 4 × 100 cycles of compute cannot
	// finish before cycle 400.
	if eng.Now() < 400 {
		t.Fatalf("core oversubscribed: finished at %d", eng.Now())
	}
}

func TestThreadsOnDifferentCoresRunInParallel(t *testing.T) {
	eng, s := newSys(t)
	for i := 0; i < 4; i++ {
		s.Go("w", i, func(th *Thread) { th.Compute(1000) })
	}
	eng.Run(0)
	if eng.Now() != 1000 {
		t.Fatalf("4 cores × 1000 cycles finished at %d, want 1000 (parallel)", eng.Now())
	}
}

func TestYieldNoWaitersIsFree(t *testing.T) {
	eng, s := newSys(t)
	s.Go("solo", 0, func(th *Thread) {
		th.Compute(10)
		th.Yield()
		th.Compute(10)
	})
	eng.Run(0)
	if eng.Now() != 20 {
		t.Fatalf("lone yield cost cycles: end at %d", eng.Now())
	}
}

func TestMigrationCostNearPaper(t *testing.T) {
	// Paper §5: "The measured cost of migration in CoreTime is 2000
	// cycles." The reproduction should land in the same range.
	eng, s := newSys(t)
	var cost sim.Time
	s.Go("mig", 0, func(th *Thread) {
		th.Compute(100) // warm up the context buffer locally
		th.Store(th.ctxBuf, contextBytes)
		start := th.Now()
		th.MigrateTo(4) // another chip
		cost = th.Now() - start
	})
	eng.Run(0)
	if cost < 1200 || cost > 3200 {
		t.Fatalf("migration cost = %d cycles, want ≈2000 (paper)", cost)
	}
}

func TestMigrationMovesExecution(t *testing.T) {
	eng, s := newSys(t)
	var coreDuring, coreAfter int
	s.Go("mig", 0, func(th *Thread) {
		th.MigrateTo(7)
		coreDuring = th.Core()
		th.ReturnHome()
		coreAfter = th.Core()
	})
	eng.Run(0)
	if coreDuring != 7 || coreAfter != 0 {
		t.Fatalf("cores = %d,%d, want 7,0", coreDuring, coreAfter)
	}
	c := s.Machine().Counters()
	if c.Snapshot(7).MigrationsIn != 1 || c.Snapshot(0).MigrationsOut != 1 {
		t.Fatal("migration counters not updated")
	}
	if c.Snapshot(0).MigrationsIn != 1 {
		t.Fatal("return-home migration not counted")
	}
}

func TestMigrateToSameCoreIsFree(t *testing.T) {
	eng, s := newSys(t)
	s.Go("stay", 3, func(th *Thread) {
		th.MigrateTo(3)
	})
	eng.Run(0)
	if eng.Now() != 0 {
		t.Fatalf("no-op migration cost %d cycles", eng.Now())
	}
}

func TestMigrantQueuesBehindBusyResident(t *testing.T) {
	eng, s := newSys(t)
	var migrantRanAt sim.Time
	s.Go("resident", 5, func(th *Thread) {
		th.Compute(50000) // long operation, no yields
	})
	s.Go("migrant", 0, func(th *Thread) {
		th.MigrateTo(5)
		migrantRanAt = th.Now()
	})
	eng.Run(0)
	if migrantRanAt < 50000 {
		t.Fatalf("migrant ran at %d, before resident finished at 50000", migrantRanAt)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	eng, s := newSys(t)
	l := s.NewSpinLock("l")
	inside := 0
	maxInside := 0
	for i := 0; i < 8; i++ {
		s.Go("locker", i, func(th *Thread) {
			for j := 0; j < 5; j++ {
				th.Lock(l)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				th.Compute(500)
				inside--
				th.Unlock(l)
				th.Yield()
			}
		})
	}
	eng.Run(0)
	if maxInside != 1 {
		t.Fatalf("critical section held by %d threads at once", maxInside)
	}
	if l.Acquisitions != 40 {
		t.Fatalf("Acquisitions = %d, want 40", l.Acquisitions)
	}
	if l.Held() {
		t.Fatal("lock still held at end")
	}
}

func TestSpinLockSerializesTime(t *testing.T) {
	eng, s := newSys(t)
	l := s.NewSpinLock("l")
	const hold = 10000
	for i := 0; i < 4; i++ {
		s.Go("locker", i, func(th *Thread) {
			th.Lock(l)
			th.Compute(hold)
			th.Unlock(l)
		})
	}
	eng.Run(0)
	if eng.Now() < 4*hold {
		t.Fatalf("4 critical sections of %d finished at %d: lock did not serialize",
			hold, eng.Now())
	}
}

func TestTryLock(t *testing.T) {
	eng, s := newSys(t)
	l := s.NewSpinLock("l")
	var got []bool
	s.Go("a", 0, func(th *Thread) {
		got = append(got, th.TryLock(l))
		th.Compute(10000)
		th.Unlock(l)
	})
	s.Go("b", 1, func(th *Thread) {
		th.Compute(5000) // arrive squarely inside a's critical section
		got = append(got, th.TryLock(l))
	})
	eng.Run(0)
	if len(got) != 2 || !got[0] || got[1] {
		t.Fatalf("TryLock results = %v, want [true false]", got)
	}
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	eng, s := newSys(t)
	l := s.NewSpinLock("l")
	panicked := false
	s.Go("bad", 0, func(th *Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		th.Unlock(l)
	})
	eng.Run(0)
	if !panicked {
		t.Fatal("unlock by non-holder did not panic")
	}
}

func TestIdleAccounting(t *testing.T) {
	eng, s := newSys(t)
	s.Go("w", 0, func(th *Thread) {
		th.Compute(100)
	})
	eng.Run(0)
	// Core 0 went idle at 100; flush at 500.
	eng.At(500, func() { s.FlushIdleAccounting() })
	eng.Run(0)
	idle := s.Machine().Counters().Snapshot(0).IdleCycles
	if idle != 400 {
		t.Fatalf("IdleCycles = %d, want 400", idle)
	}
	// Never-used cores report no idle time (they are not "idle", they
	// are unused — the monitor only balances onto cores it manages).
	if got := s.Machine().Counters().Snapshot(9).IdleCycles; got != 0 {
		t.Fatalf("unused core accrued %d idle cycles", got)
	}
}

func TestSpinnerCannotStarveQueuedHolder(t *testing.T) {
	// Regression test for the cooperative-threading deadlock: thread A
	// migrates to core 1 holding lock L; resident thread B on core 1
	// spins for L. B's backoff must hand the core to A.
	eng, s := newSys(t)
	l := s.NewSpinLock("l")
	done := 0
	s.Go("a", 0, func(th *Thread) {
		th.Lock(l)
		th.MigrateTo(1)
		th.Compute(5000)
		th.Unlock(l)
		th.ReturnHome()
		done++
	})
	s.Go("b", 1, func(th *Thread) {
		th.Compute(10) // let A take the lock first
		th.Lock(l)
		th.Unlock(l)
		done++
	})
	eng.Run(50_000_000)
	if done != 2 {
		t.Fatalf("deadlock: only %d/2 threads finished", done)
	}
}

func TestHeterogeneousComputeScaling(t *testing.T) {
	eng := sim.NewEngine()
	cfg := topology.AMD16()
	cfg.CoreSpeed = make([]float64, 16)
	for i := range cfg.CoreSpeed {
		cfg.CoreSpeed[i] = 1
	}
	cfg.CoreSpeed[2] = 2 // core 2 is half speed: cycles cost double
	m, err := machine.New(cfg, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(eng, m, DefaultOptions())
	var fastEnd, slowEnd sim.Time
	s.Go("fast", 0, func(th *Thread) { th.Compute(1000); fastEnd = th.Now() })
	s.Go("slow", 2, func(th *Thread) { th.Compute(1000); slowEnd = th.Now() })
	eng.Run(0)
	if fastEnd != 1000 || slowEnd != 2000 {
		t.Fatalf("ends = %d,%d, want 1000,2000", fastEnd, slowEnd)
	}
}

func TestLoadComputeCombines(t *testing.T) {
	eng, s := newSys(t)
	var elapsed sim.Time
	s.Go("scan", 0, func(th *Thread) {
		th.Load(0, 64) // warm one line
		start := th.Now()
		th.LoadCompute(0, 64, 0.5) // L1 hit + 32 cycles compute
		elapsed = th.Now() - start
	})
	eng.Run(0)
	want := sim.Time(3 + 32)
	if elapsed != want {
		t.Fatalf("LoadCompute took %d, want %d", elapsed, want)
	}
}

func TestIdleUntilReleasesCore(t *testing.T) {
	eng, s := newSys(t)
	var waiterRan sim.Time
	var wake sim.Time
	s.Go("idler", 0, func(th *Thread) {
		th.IdleUntil(10_000)
		wake = th.Now()
	})
	s.Go("waiter", 0, func(th *Thread) {
		// The idler releases core 0 while idle, so the waiter runs inside
		// the idle window instead of after it.
		th.Compute(500)
		waiterRan = th.Now()
	})
	eng.Run(0)
	if wake != 10_000 {
		t.Errorf("idler woke at %d, want 10000", wake)
	}
	if waiterRan == 0 || waiterRan > 10_000 {
		t.Errorf("waiter finished at %d; it should have run during the idle window", waiterRan)
	}
	// The idle window is idle, not busy: only the two Compute-free cycles
	// counts were charged.
	if busy := s.Machine().Counters().Snapshot(0).BusyCycles; busy != 500 {
		t.Errorf("BusyCycles = %d, want 500 (idling must not charge work)", busy)
	}
}

func TestIdleUntilPastTargetReturnsImmediately(t *testing.T) {
	eng, s := newSys(t)
	var end sim.Time
	s.Go("worker", 0, func(th *Thread) {
		th.Compute(100)
		th.IdleUntil(50) // already in the past
		end = th.Now()
	})
	eng.Run(0)
	if end != 100 {
		t.Errorf("IdleUntil(past) advanced time to %d, want 100", end)
	}
}

package core

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/perfctr"
)

func TestIneffectivePlacementWithdrawn(t *testing.T) {
	// An object far larger than the caches it is packed into keeps
	// loading from DRAM even when placed; the monitor must withdraw the
	// placement and suppress immediate re-placement.
	opts := DefaultOptions()
	opts.RebalanceInterval = 500_000
	opts.DecayWindow = 0
	opts.UnplaceDRAMFrac = 0.10
	h := newHarness(t, opts)

	// 768 KB object against a ~0.9 MB budget: placeable, but its lines
	// cannot survive in a 512 KB L2 + L3 share while 15 other cores'
	// traffic shares the L3. To force DRAM traffic deterministically we
	// scan it from its own core while 4 other cores stream unrelated
	// data through the same chip's L3.
	obj := h.alloc(t, "big", 768<<10)
	stream := h.alloc(t, "stream", 6<<20)

	h.sys.Go("scanner", 0, func(th *exec.Thread) {
		for i := 0; i < 60; i++ {
			scanOp(h.rt, th, obj)
		}
	})
	for i := 1; i < 4; i++ {
		i := i
		h.sys.Go("polluter", i, func(th *exec.Thread) {
			for r := 0; r < 40; r++ {
				th.LoadCompute(stream.Base, int(stream.Size)/4, 0.01)
				th.Yield()
				_ = i
			}
		})
	}
	h.eng.Run(0)

	// The placement may have been withdrawn and later retried after the
	// cooldown (the workload keeps hammering the object), so assert the
	// withdrawal mechanism fired rather than the final state.
	if h.rt.Stats().Unplacements == 0 {
		t.Fatal("thrashing placement never withdrawn")
	}
	oi := h.rt.info(obj.Base)
	if oi.noPlaceUntil == 0 {
		t.Fatal("no re-placement cooldown recorded")
	}
}

func TestEffectivePlacementKept(t *testing.T) {
	// A small, hot, well-fitting object must never be withdrawn.
	opts := DefaultOptions()
	opts.RebalanceInterval = 500_000
	opts.DecayWindow = 0
	h := newHarness(t, opts)
	obj := h.alloc(t, "small", 64<<10)
	h.sys.Go("w", 0, func(th *exec.Thread) {
		for i := 0; i < 200; i++ {
			scanOp(h.rt, th, obj)
		}
	})
	h.eng.Run(0)
	if _, placed := h.rt.Placement(obj.Base); !placed {
		t.Fatal("well-fitting placement was withdrawn")
	}
	if h.rt.Stats().Unplacements != 0 {
		t.Fatalf("spurious unplacements: %d", h.rt.Stats().Unplacements)
	}
}

func TestDisperseMovesThreadOffCongestedCore(t *testing.T) {
	h := newHarness(t, noRebalance())
	obj := h.alloc(t, "hot", 64<<10)
	oi := h.rt.info(obj.Base)
	oi.missEWMA = 100
	h.rt.place(oi)
	placedCore, _ := h.rt.Placement(obj.Base)

	// Several foreign threads operate on the object; when one finishes
	// while others queue, it must leave for an idle core rather than
	// camp on the hot one.
	endCores := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		home := (placedCore + 1 + i) % 16
		h.sys.Go("visitor", home, func(th *exec.Thread) {
			for r := 0; r < 6; r++ {
				scanOp(h.rt, th, obj)
			}
			endCores[i] = th.Core()
		})
	}
	h.eng.Run(0)
	if h.rt.Stats().Disperses == 0 {
		t.Fatal("no dispersal despite queued visitors")
	}
	// Not all threads may end on the hot core.
	onHot := 0
	for _, c := range endCores {
		if c == placedCore {
			onHot++
		}
	}
	if onHot == 4 {
		t.Fatal("all threads camped on the congested core")
	}
}

func TestNoDisperseWhenCoreQuiet(t *testing.T) {
	h := newHarness(t, noRebalance())
	obj := h.alloc(t, "solo", 64<<10)
	oi := h.rt.info(obj.Base)
	oi.missEWMA = 100
	h.rt.place(oi)
	placedCore, _ := h.rt.Placement(obj.Base)
	var end int
	h.sys.Go("visitor", (placedCore+1)%16, func(th *exec.Thread) {
		scanOp(h.rt, th, obj)
		end = th.Core()
	})
	h.eng.Run(0)
	if end != placedCore {
		t.Fatalf("lone visitor dispersed from quiet core to %d", end)
	}
	if h.rt.Stats().Disperses != 0 {
		t.Fatal("dispersal on an uncontended core")
	}
}

func TestMonitorStopsWhenSimulationEnds(t *testing.T) {
	// The Every-based monitor must not keep the event queue alive after
	// the last thread exits (Run(0) would never return).
	opts := DefaultOptions()
	opts.RebalanceInterval = 100_000
	h := newHarness(t, opts)
	h.sys.Go("w", 0, func(th *exec.Thread) { th.Compute(500_000) })
	end := h.eng.Run(0) // must terminate
	if end < 500_000 {
		t.Fatalf("run ended prematurely at %d", end)
	}
}

func TestWindowOpsResetEachPass(t *testing.T) {
	opts := DefaultOptions()
	opts.RebalanceInterval = 200_000
	opts.DecayWindow = 0
	h := newHarness(t, opts)
	obj := h.alloc(t, "o", 64<<10)
	h.sys.Go("w", 0, func(th *exec.Thread) {
		for i := 0; i < 10; i++ {
			scanOp(h.rt, th, obj)
		}
		// Outlive several monitor passes without touching the object.
		th.Compute(1_000_000)
	})
	h.eng.Run(0)
	if got := h.rt.info(obj.Base).windowOps; got != 0 {
		t.Fatalf("windowOps = %d after idle monitor passes, want 0", got)
	}
}

func TestUnusedCoreClassifiedIdleNotOverloaded(t *testing.T) {
	// Regression: a core never acquired since reset accrues neither busy
	// nor idle cycles (the exec layer starts the idle clock at first
	// use), so a core that slept through a dead-time fast-forwarded gap
	// read idleFrac == 0 and was classified overloaded — its placed
	// objects were bounced off a core nobody was even running on.
	opts := DefaultOptions()
	opts.RebalanceInterval = 500_000
	h := newHarness(t, opts)

	a := h.alloc(t, "a", 32<<10)
	b := h.alloc(t, "b", 32<<10)
	oa, ob := h.rt.info(a.Base), h.rt.info(b.Base)
	oa.missEWMA, ob.missEWMA = 100, 100
	h.rt.assign(oa, 7) // two objects: placedCount > 1 arms the old bug
	h.rt.assign(ob, 7)

	// One thread computes briefly, then sleeps through several monitor
	// windows. With no active thread the engine fast-forwards the gaps
	// as dead time; core 7 is never touched at all.
	h.sys.Go("sleeper", 0, func(th *exec.Thread) {
		th.Compute(100_000)
		th.IdleUntil(2_600_000)
		oa.lastAccess = th.Now() // keep decay out of the picture
		ob.lastAccess = th.Now()
	})
	h.eng.Run(0)

	if h.eng.DeadTime() == 0 {
		t.Fatal("test never exercised the dead-time fast-forward path")
	}
	if got := h.rt.Stats().ObjectsMoved; got != 0 {
		t.Fatalf("monitor moved %d objects off a never-used core", got)
	}
	if core, placed := h.rt.Placement(a.Base); !placed || core != 7 {
		t.Fatalf("object a at core=%d placed=%v, want core 7", core, placed)
	}
}

func TestRebalanceZeroLengthWindowIsNoOp(t *testing.T) {
	// Two monitor firings at the same cycle (an arena reset can
	// re-register the tick on an engine whose clock has not advanced)
	// must not classify against a zero-length window.
	h := newHarness(t, noRebalance())
	a := h.alloc(t, "a", 32<<10)
	b := h.alloc(t, "b", 32<<10)
	oa, ob := h.rt.info(a.Base), h.rt.info(b.Base)
	oa.missEWMA, ob.missEWMA = 100, 100
	h.rt.assign(oa, 0)
	h.rt.assign(ob, 0)

	h.rt.rebalance() // first pass: baseline only
	h.rt.rebalance() // same cycle: zero-length window, must be a no-op
	if got := h.rt.Stats(); got.ObjectsMoved != 0 || got.Rebalances != 0 {
		t.Fatalf("zero-length window rebalanced: %+v", got)
	}

	// The same back-to-back shape through a full arena reset chain.
	h.eng.Reset(1)
	h.m.Reset()
	h.sys.Reset()
	h.rt.Reset()
	h.rt.rebalance()
	h.rt.rebalance()
	if got := h.rt.Stats(); got.ObjectsMoved != 0 || got.Rebalances != 0 {
		t.Fatalf("zero-length window after reset rebalanced: %+v", got)
	}

	// balanceLoad itself must refuse a zero elapsed denominator even
	// with non-trivial deltas.
	deltas := make([]perfctr.Counters, h.rt.sys.NumCores())
	deltas[1].IdleCycles = 400_000
	if moved := h.rt.balanceLoad(deltas, 0); moved != 0 {
		t.Fatalf("balanceLoad moved %d over a zero-length window", moved)
	}
}

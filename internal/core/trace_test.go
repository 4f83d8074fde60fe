package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestRuntimeEmitsTraceEvents(t *testing.T) {
	opts := noRebalance()
	tr := trace.New(1024)
	opts.Tracer = tr
	h := newHarness(t, opts)
	obj := h.alloc(t, "dir0", 128<<10)
	h.sys.Go("warm", 5, func(th *exec.Thread) {
		for i := 0; i < 4; i++ {
			scanOp(h.rt, th, obj)
		}
	})
	h.sys.Go("visitor", 9, func(th *exec.Thread) {
		th.Compute(3_000_000)
		scanOp(h.rt, th, obj)
	})
	h.eng.Run(0)

	if tr.Count(trace.EvPlace) != 1 {
		t.Fatalf("placements traced = %d, want 1", tr.Count(trace.EvPlace))
	}
	if tr.Count(trace.EvMigrate) == 0 {
		t.Fatal("no migration events traced")
	}
	// The placement event must carry the object's name and core.
	ev := tr.Filter(trace.EvPlace)[0]
	if ev.Name != "dir0" {
		t.Fatalf("place event names %q", ev.Name)
	}
	core, _ := h.rt.Placement(obj.Base)
	if ev.Arg1 != int64(core) {
		t.Fatalf("place event core %d, want %d", ev.Arg1, core)
	}
	var sb strings.Builder
	tr.Dump(&sb)
	if !strings.Contains(sb.String(), "dir0 -> core") {
		t.Fatalf("dump unreadable:\n%s", sb.String())
	}
}

func TestMonitorEmitsUnplaceReason(t *testing.T) {
	opts := DefaultOptions()
	opts.RebalanceInterval = 500_000
	opts.DecayWindow = 0
	opts.UnplaceDRAMFrac = 0.10
	tr := trace.New(4096)
	opts.Tracer = tr
	h := newHarness(t, opts)

	obj := h.alloc(t, "big", 768<<10)
	stream := h.alloc(t, "stream", 6<<20)
	h.sys.Go("scanner", 0, func(th *exec.Thread) {
		for i := 0; i < 40; i++ {
			scanOp(h.rt, th, obj)
		}
	})
	for i := 1; i < 4; i++ {
		h.sys.Go("polluter", i, func(th *exec.Thread) {
			for r := 0; r < 30; r++ {
				th.LoadCompute(stream.Base, int(stream.Size)/4, 0.01)
				th.Yield()
			}
		})
	}
	h.eng.Run(0)

	found := false
	for _, ev := range tr.Filter(trace.EvUnplace) {
		if ev.Arg2 != 0 && ev.Name == "big" {
			found = true
		}
	}
	if !found {
		t.Fatal("no dram-ineffective unplace event traced")
	}
}

func TestNoTracerIsFree(t *testing.T) {
	// Options without a tracer must work (nil Tracer throughout).
	h := newHarness(t, noRebalance())
	obj := h.alloc(t, "dir0", 64<<10)
	h.sys.Go("w", 0, func(th *exec.Thread) {
		for i := 0; i < 4; i++ {
			scanOp(h.rt, th, obj)
		}
	})
	h.eng.Run(0) // would panic if Emit were not nil-safe
}

// TestDecayTraceOrderDeterministic runs one workload on two runtimes and
// demands identical trace event sequences. Dozens of objects decay in the
// same monitor pass, so their unplace events share a timestamp; a pass
// that walked the object map would emit them in a different order on
// each run.
func TestDecayTraceOrderDeterministic(t *testing.T) {
	run := func() []trace.Event {
		opts := DefaultOptions()
		opts.RebalanceInterval = 500_000
		opts.DecayWindow = 1_000_000
		tr := trace.New(1 << 14)
		opts.Tracer = tr
		h := newHarness(t, opts)
		var objs []*mem.Object
		for i := 0; i < 48; i++ {
			objs = append(objs, h.alloc(t, fmt.Sprintf("obj%d", i), 16<<10))
		}
		for core := 0; core < 16; core++ {
			h.sys.Go("worker", core, func(th *exec.Thread) {
				for r := 0; r < 3; r++ {
					for i := core; i < len(objs); i += 16 {
						scanOp(h.rt, th, objs[i])
					}
				}
			})
		}
		// Keep the monitor ticking long after the last operation, so
		// every placement decays.
		h.sys.Go("idle", 0, func(th *exec.Thread) { th.Compute(8_000_000) })
		h.eng.Run(0)
		return tr.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs traced %d vs %d events", len(a), len(b))
	}
	unplacedAt := make(map[sim.Time]int)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs between runs:\n%v\n%v", i, a[i], b[i])
		}
		if a[i].Kind == trace.EvUnplace {
			unplacedAt[a[i].At]++
		}
	}
	most := 0
	for _, n := range unplacedAt {
		most = max(most, n)
	}
	if most < 16 {
		t.Fatalf("at most %d unplace events share a timestamp; the test needs a mass decay", most)
	}
}

// TestTieBreaksFollowRegistrationOrder pins the two packer walks that
// choose among equals: the frequency policy's victim among equally cold
// placed objects, and the order in which PackAll unplaces objects (and
// traces it). Twenty fresh runtimes register the same ten equal-rate
// placed objects; a walk over the object map would pick a different
// victim or unplace order on some of them.
func TestTieBreaksFollowRegistrationOrder(t *testing.T) {
	const nobj = 10
	run := func() (victim string, unplaced []uint64) {
		opts := noRebalance()
		tr := trace.New(256)
		opts.Tracer = tr
		h := newHarness(t, opts)
		objs := make([]*objInfo, nobj)
		for i := range objs {
			objs[i] = h.rt.info(h.alloc(t, fmt.Sprintf("obj%d", i), 64<<10).Base)
			objs[i].missEWMA = 2 * h.rt.opts.MissThreshold
			if !h.rt.place(objs[i]) {
				t.Fatalf("setup: object %d did not place", i)
			}
		}
		hot := h.rt.info(h.alloc(t, "hot", 64<<10).Base)
		hot.missEWMA, hot.windowOps = 5000, 1000
		if !h.rt.evictColderThan(hot) {
			t.Fatal("no equally cold victim was evicted")
		}
		for _, oi := range objs {
			if !oi.placed {
				victim = oi.obj.Name
			}
		}
		h.rt.PackAll()
		for _, ev := range tr.Filter(trace.EvUnplace) {
			unplaced = append(unplaced, ev.Subject)
		}
		return victim, unplaced
	}
	victim, unplaced := run()
	if victim != "obj0" {
		t.Fatalf("victim %q, want the first registered, obj0", victim)
	}
	if len(unplaced) != nobj {
		t.Fatalf("%d unplace events, want %d", len(unplaced), nobj)
	}
	for i := 1; i < 20; i++ {
		v, u := run()
		if v != victim || !slices.Equal(u, unplaced) {
			t.Fatalf("runtime %d: victim %q unplaced %x, first runtime: %q %x", i, v, u, victim, unplaced)
		}
	}
}

// Package core implements CoreTime, the paper's O2 (objects-to-operations)
// scheduler.
//
// CoreTime inverts the traditional scheduling relationship: instead of
// assigning threads to cores and letting hardware caches follow the
// threads, it assigns *objects* to cores' caches and migrates threads to
// the core that caches the object they are about to use. The interface is
// the pair of annotations from the paper's Figure 3:
//
//	rt.Start(t, addr) // ct_start(o): maybe migrate to o's core
//	...operation...
//	rt.End(t)         // ct_end(): maybe migrate back
//
// Between the annotations CoreTime counts the core's cache misses (through
// the simulated event counters, exactly as the real system used AMD event
// counters). Objects whose operations miss heavily are "expensive to
// fetch" and get assigned to a cache by the greedy first-fit cache-packing
// algorithm. A periodic monitor detects overloaded cores and rearranges
// objects (paper §4), which is what lets the oscillating workload of
// Fig. 4b rebalance.
//
// The §6.2 extensions — object clustering, read-only replication,
// frequency-based replacement for oversubscribed working sets, and
// per-process budget fairness — are implemented behind Options flags and
// ablated in the benchmark harness.
package core

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/perfctr"
	"repro/internal/sim"
	"repro/internal/trace"
)

// objInfo is CoreTime's bookkeeping for one object.
type objInfo struct {
	obj *mem.Object

	// missEWMA is the smoothed cache misses per operation, the paper's
	// "expensive to fetch" signal.
	missEWMA float64
	// dramEWMA is the smoothed DRAM loads per operation. A placed object
	// whose operations still load from DRAM is not fitting on chip; the
	// monitor unplaces it (§4: the counters "detect when ... too many
	// objects are assigned to a cache").
	dramEWMA float64
	// cyclesEWMA is the smoothed operation duration, used by the monitor
	// to estimate how much core time an object's operations consume.
	cyclesEWMA float64

	// noPlaceUntil suppresses re-placement after the monitor judged a
	// placement ineffective, breaking unplace/re-place oscillation.
	noPlaceUntil sim.Time

	ops        uint64 // total operations
	readOps    uint64 // operations declared read-only
	windowOps  uint64 // operations since the last monitor pass
	placedOps  uint64 // operations since the current placement
	lastAccess sim.Time

	placed bool
	core   int // valid when placed

	// replicas lists cores holding read-only copies (replication
	// extension). Empty unless replicated; the primary is replicas[0].
	replicas []int

	// cluster groups objects that should share a cache (clustering
	// extension); 0 means unclustered.
	cluster int

	process int // owning process (fairness extension)
}

// bytes returns the cache footprint used for packing.
func (oi *objInfo) bytes() int64 { return int64(oi.obj.Size) }

// opCtx is one in-flight operation on a thread's annotation stack.
type opCtx struct {
	oi      *objInfo
	start   perfctr.Counters
	startAt sim.Time
	core    int // core the operation runs on
	// origin is the core the thread ran on before OpStart migrated it;
	// OpEnd returns there. For a top-level operation that is the home
	// core; for a nested operation it is the outer operation's core.
	origin   int
	migrated bool
}

// Runtime is a CoreTime instance managing one machine.
type Runtime struct {
	sys  *exec.System
	mach *machine.Machine
	opts Options

	objs map[mem.Addr]*objInfo // keyed by object base address
	// order holds the objs values in registration order. The monitor's
	// passes, the frequency policy's victim search and PackAll walk it
	// instead of the map, so their tie-breaks and the trace events they
	// emit at one timestamp come out the same on every run.
	order []*objInfo

	// coreLoad is the placed bytes per core; budget is the per-core
	// capacity in bytes.
	coreLoad []int64
	budget   int64

	// ops in flight, keyed by thread id (engine is single-threaded, so a
	// plain map is safe).
	inflight map[int][]*opCtx

	// process weights for the fairness extension; nil means unweighted.
	// procWeightSum is their total, kept by SetProcessWeight so the sum
	// does not depend on map iteration order.
	procWeights   map[int]float64
	procWeightSum float64

	clusterSeq int
	mon        monitorState

	// ctxPool recycles opCtx records: one is needed per in-flight
	// operation, and the annotation path runs once per simulated
	// operation. oiPool recycles objInfo records across Reset, which
	// re-learns every object.
	ctxPool []*opCtx
	oiPool  []*objInfo

	stats Stats
}

// getCtx returns a zeroed opCtx, reusing a pooled one when available.
func (rt *Runtime) getCtx() *opCtx {
	if n := len(rt.ctxPool); n > 0 {
		ctx := rt.ctxPool[n-1]
		rt.ctxPool[n-1] = nil
		rt.ctxPool = rt.ctxPool[:n-1]
		*ctx = opCtx{}
		return ctx
	}
	return &opCtx{}
}

func (rt *Runtime) putCtx(ctx *opCtx) {
	rt.ctxPool = append(rt.ctxPool, ctx)
}

// Stats counts runtime-level events for reports and tests.
type Stats struct {
	Ops             uint64 // operations seen
	Migrations      uint64 // operations that required migration
	Placements      uint64 // objects assigned to a cache
	Unplacements    uint64 // objects removed from a cache
	Rebalances      uint64 // monitor passes that moved at least one object
	ObjectsMoved    uint64 // objects moved by the monitor
	Replications    uint64 // replica sets created
	ReplicaCollapse uint64 // replica sets collapsed by writes
	Rejections      uint64 // placement attempts that found no space
	Disperses       uint64 // threads moved off congested cores after ops
}

// New creates a CoreTime runtime bound to sys. If opts.RebalanceInterval
// is non-zero the monitor starts immediately on sys's engine.
func New(sys *exec.System, opts Options) *Runtime {
	cfg := sys.Machine().Config()
	rt := &Runtime{
		sys:      sys,
		mach:     sys.Machine(),
		opts:     opts,
		objs:     make(map[mem.Addr]*objInfo),
		coreLoad: make([]int64, cfg.NumCores()),
		budget:   int64(float64(cfg.PerCoreBudgetBytes()) * budgetFraction),
		inflight: make(map[int][]*opCtx),
	}
	rt.startMonitor()
	return rt
}

// startMonitor registers the rebalance tick when the options ask for one.
func (rt *Runtime) startMonitor() {
	if rt.opts.RebalanceInterval <= 0 {
		return
	}
	eng := rt.sys.Engine()
	eng.Every(rt.opts.RebalanceInterval, func() bool {
		rt.rebalance()
		// Keep ticking only while simulated threads are alive; otherwise
		// the monitor would hold the event queue open forever.
		return eng.Live() > 0
	})
}

// Reset returns the runtime to its post-New state on the same system,
// keeping its allocated pools and scratch so an arena-reused sweep repeat
// rebuilds no scheduler bookkeeping. The caller must have Reset the
// engine, system, and machine first (the monitor tick is re-registered on
// the reset engine); everything observable — placements, in-flight
// operations, process weights, stats — matches a freshly built Runtime.
func (rt *Runtime) Reset() {
	for _, oi := range rt.order {
		*oi = objInfo{}
		rt.oiPool = append(rt.oiPool, oi)
	}
	clear(rt.objs)
	clear(rt.order)
	rt.order = rt.order[:0]
	for i := range rt.coreLoad {
		rt.coreLoad[i] = 0
	}
	clear(rt.inflight)
	rt.procWeights = nil
	rt.procWeightSum = 0
	rt.clusterSeq = 0
	// Empty (not zero) the monitor's snapshot history: the first pass
	// after Reset must re-baseline exactly like a fresh runtime's first
	// pass instead of computing deltas against zeroed counters. The
	// window timestamp re-learns from blank state the same way.
	rt.mon.last = rt.mon.last[:0]
	rt.mon.lastAt = 0
	rt.stats = Stats{}
	rt.startMonitor()
}

// Name implements sched.Annotator.
func (rt *Runtime) Name() string { return "coretime" }

// Stats returns a copy of the runtime counters.
func (rt *Runtime) Stats() Stats { return rt.stats }

// FillTelemetry fills the telemetry sampler's per-sample scheduler view:
// placed[i] becomes the number of objects currently placed on core i.
// The slice length is the caller's; extra entries are left zeroed, so a
// sampler built for a different view cannot index out of range.
//
//o2:hotpath
func (rt *Runtime) FillTelemetry(placed []int32) {
	for i := range placed {
		placed[i] = 0
	}
	for _, oi := range rt.objs {
		if oi.placed && oi.core < len(placed) {
			placed[oi.core]++
		}
	}
}

// Budget returns the per-core packing budget in bytes.
func (rt *Runtime) Budget() int64 { return rt.budget }

// CoreLoad returns the bytes currently packed into core's budget.
func (rt *Runtime) CoreLoad(core int) int64 { return rt.coreLoad[core] }

// info returns (creating if needed) the bookkeeping for the object at
// addr. Unregistered addresses return nil: CoreTime can only schedule
// objects whose extent it knows (paper §3: the scheduler must "find sizes
// of objects").
func (rt *Runtime) info(addr mem.Addr) *objInfo {
	obj := rt.mach.Image().ObjectAt(addr)
	if obj == nil {
		return nil
	}
	oi := rt.objs[obj.Base]
	if oi == nil {
		if n := len(rt.oiPool); n > 0 {
			oi = rt.oiPool[n-1]
			rt.oiPool[n-1] = nil
			rt.oiPool = rt.oiPool[:n-1]
		} else {
			oi = new(objInfo)
		}
		oi.obj = obj
		rt.objs[obj.Base] = oi
		rt.order = append(rt.order, oi)
	}
	return oi
}

// OpStart implements sched.Annotator: the paper's ct_start.
func (rt *Runtime) OpStart(t *exec.Thread, addr mem.Addr) { rt.start(t, addr, false) }

// OpStartReadOnly implements sched.ReadOnlyAnnotator: ct_start with a
// promise the operation will not write the object.
func (rt *Runtime) OpStartReadOnly(t *exec.Thread, addr mem.Addr) { rt.start(t, addr, true) }

func (rt *Runtime) start(t *exec.Thread, addr mem.Addr, readOnly bool) {
	rt.stats.Ops++
	oi := rt.info(addr)
	ctx := rt.getCtx()
	ctx.startAt, ctx.core, ctx.origin = t.Now(), t.Core(), t.Core()
	if oi != nil {
		ctx.oi = oi
		oi.process = t.Process()
		if !readOnly && len(oi.replicas) > 0 {
			rt.collapseReplicas(oi)
		}
		if target, ok := rt.targetCore(t, oi); ok && target != t.Core() {
			from := t.Core()
			t.MigrateTo(target)
			ctx.migrated = true
			rt.stats.Migrations++
			rt.opts.Tracer.Emit(trace.Event{At: t.Now(), Kind: trace.EvMigrate,
				Subject: uint64(t.ID()), Name: t.Name(), Arg1: int64(from), Arg2: int64(target)})
		}
		ctx.core = t.Core()
	}
	// Snapshot the event counters of the core the operation runs on —
	// after any migration, matching the paper's "counts the number of
	// cache misses that occur between a pair of CoreTime annotations".
	ctx.start = rt.mach.Counters().Snapshot(t.Core())
	rt.inflight[t.ID()] = append(rt.inflight[t.ID()], ctx)
	if oi != nil && readOnly {
		oi.readOps++
	}
}

// occupancy counts the threads running on or queued for core.
func (rt *Runtime) occupancy(core int) int {
	c := rt.sys.Core(core)
	n := c.QueueLen()
	if c.Holder() != nil {
		n++
	}
	return n
}

// targetCore returns the core an operation on oi should run on.
func (rt *Runtime) targetCore(t *exec.Thread, oi *objInfo) (int, bool) {
	if len(oi.replicas) > 0 {
		// Replicated: if the thread's own chip holds a replica, run
		// locally — the chip's cores share the replica through their
		// caches, which is the whole point of replicating instead of
		// funneling operations to one core. Otherwise migrate to the
		// least-occupied replica core.
		myChip := rt.mach.ChipOf(t.Core())
		for _, c := range oi.replicas {
			if rt.mach.ChipOf(c) == myChip {
				return 0, false // chip-local: no migration
			}
		}
		best := oi.replicas[0]
		bestOcc := 1 << 30
		for _, c := range oi.replicas {
			if occ := rt.occupancy(c); occ < bestOcc {
				best, bestOcc = c, occ
			}
		}
		return best, true
	}
	if oi.placed {
		return oi.core, true
	}
	return 0, false
}

// OpEnd implements sched.Annotator: the paper's ct_end.
func (rt *Runtime) OpEnd(t *exec.Thread) {
	stack := rt.inflight[t.ID()]
	if len(stack) == 0 {
		panic(fmt.Sprintf("core: OpEnd on thread %q with no operation in flight", t.Name()))
	}
	ctx := stack[len(stack)-1]
	stack[len(stack)-1] = nil
	rt.inflight[t.ID()] = stack[:len(stack)-1]
	nested := len(stack) > 1

	if oi := ctx.oi; oi != nil {
		delta := rt.mach.Counters().Snapshot(ctx.core).Sub(ctx.start)
		misses := float64(delta.Misses())
		dram := float64(delta.DRAMLoads)
		dur := float64(t.Now() - ctx.startAt)
		a := missEWMAAlpha
		if oi.ops == 0 {
			oi.missEWMA = misses
			oi.dramEWMA = dram
			oi.cyclesEWMA = dur
		} else {
			oi.missEWMA = a*misses + (1-a)*oi.missEWMA
			oi.dramEWMA = a*dram + (1-a)*oi.dramEWMA
			oi.cyclesEWMA = a*dur + (1-a)*oi.cyclesEWMA
		}
		oi.ops++
		oi.windowOps++
		if oi.placed {
			oi.placedOps++
		}
		oi.lastAccess = t.Now()

		if !oi.placed && oi.missEWMA > rt.opts.MissThreshold && t.Now() >= oi.noPlaceUntil {
			rt.place(oi)
		}
		rt.maybeReplicate(oi)
	}
	migrated, origin := ctx.migrated, ctx.origin
	rt.putCtx(ctx) // all fields consumed; recycle before any migration
	if migrated && nested {
		// A nested operation must resume on the enclosing operation's
		// core. A top-level operation does not return: the thread is
		// "ready to run on another core" (paper §4) and continues from
		// where the object lives.
		t.MigrateTo(origin)
		return
	}
	if migrated {
		rt.disperse(t)
	}
}

// disperse moves a foreign thread off a congested core onto an idle one
// after its operation completes. This implements the balance half of the
// paper's challenge ("It should not ... leave some cores idle while others
// are saturated", §3): without it, roaming threads accumulate wherever hot
// objects live and serialize while the rest of the machine idles.
func (rt *Runtime) disperse(t *exec.Thread) {
	cur := t.Core()
	if rt.sys.Core(cur).QueueLen() == 0 {
		return // nobody is waiting for this core
	}
	myChip := rt.mach.ChipOf(cur)
	best, bestDist := -1, 1<<30
	for c := 0; c < rt.sys.NumCores(); c++ {
		if c == cur || rt.occupancy(c) != 0 {
			continue
		}
		d := rt.mach.HopDist(myChip, rt.mach.ChipOf(c))
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	if best >= 0 {
		t.MigrateTo(best)
		rt.stats.Disperses++
		rt.opts.Tracer.Emit(trace.Event{At: t.Now(), Kind: trace.EvDisperse,
			Subject: uint64(t.ID()), Name: t.Name(), Arg1: int64(cur), Arg2: int64(best)})
	}
}

// PlaceTogether marks the given objects as a cluster: the packer will try
// to keep them in the same cache (§6.2, "object clustering"). It is a
// hint; clustering only applies when Options.EnableClustering is set.
func (rt *Runtime) PlaceTogether(addrs ...mem.Addr) {
	rt.clusterSeq++
	id := rt.clusterSeq
	for _, a := range addrs {
		if oi := rt.info(a); oi != nil {
			oi.cluster = id
		}
	}
}

// SetProcessWeight assigns a fairness weight to a process (§6.2, "the O2
// scheduler could implement priorities and fairness"). An unset process
// has weight 1. Weights partition each core's budget proportionally.
func (rt *Runtime) SetProcessWeight(pid int, w float64) {
	if rt.procWeights == nil {
		rt.procWeights = make(map[int]float64)
	}
	rt.procWeightSum += w - rt.procWeights[pid]
	rt.procWeights[pid] = w
}

// processBudget returns the per-core byte budget available to pid.
func (rt *Runtime) processBudget(pid int) int64 {
	if rt.procWeights == nil {
		return rt.budget
	}
	w, ok := rt.procWeights[pid]
	if !ok || rt.procWeightSum == 0 {
		return rt.budget
	}
	return int64(float64(rt.budget) * w / rt.procWeightSum)
}

// processLoad returns the bytes pid has placed on core.
func (rt *Runtime) processLoad(pid, core int) int64 {
	var n int64
	for _, oi := range rt.objs {
		if oi.placed && oi.core == core && oi.process == pid {
			n += oi.bytes()
		}
	}
	return n
}

// Placement reports where the object at addr is assigned: the core and
// whether it is placed at all. Replicated objects report their primary.
func (rt *Runtime) Placement(addr mem.Addr) (core int, placed bool) {
	obj := rt.mach.Image().ObjectAt(addr)
	if obj == nil {
		return 0, false
	}
	oi := rt.objs[obj.Base]
	if oi == nil {
		return 0, false
	}
	if len(oi.replicas) > 0 {
		return oi.replicas[0], true
	}
	return oi.core, oi.placed
}

// Replicas returns the cores holding replicas of the object at addr, or
// nil when it is not replicated.
func (rt *Runtime) Replicas(addr mem.Addr) []int {
	obj := rt.mach.Image().ObjectAt(addr)
	if obj == nil {
		return nil
	}
	oi := rt.objs[obj.Base]
	if oi == nil || len(oi.replicas) == 0 {
		return nil
	}
	out := make([]int, len(oi.replicas))
	copy(out, oi.replicas)
	return out
}

// PlacedObjects returns the placed objects per core (for the Fig. 2
// cache-contents tool), sorted by object base address within each core.
func (rt *Runtime) PlacedObjects() [][]*mem.Object {
	out := make([][]*mem.Object, rt.mach.Config().NumCores())
	for _, oi := range rt.objs {
		if oi.placed {
			out[oi.core] = append(out[oi.core], oi.obj)
		}
		for i, c := range oi.replicas {
			if i == 0 && oi.placed {
				continue
			}
			out[c] = append(out[c], oi.obj)
		}
	}
	for i := range out {
		sort.Slice(out[i], func(a, b int) bool { return out[i][a].Base < out[i][b].Base })
	}
	return out
}

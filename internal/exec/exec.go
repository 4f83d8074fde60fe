// Package exec is the execution substrate: green threads running on the
// cores of a simulated machine.
//
// It reproduces the structure of CoreTime's runtime (paper §4,
// "Implementation"): one kernel thread per core (here: the core itself as a
// schedulable resource), cooperative user-level threads multiplexed on top,
// and thread migration through a shared context buffer plus a flag the
// destination core polls.
//
// Threads advance simulated time explicitly: Compute charges CPU cycles,
// Load/Store charge memory latency through the machine model, and Yield
// hands the core to other threads queued on it. Because every thread is a
// sim.Proc, exactly one thread executes at a time and runs are
// deterministic.
package exec

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Options tune the substrate's costs.
type Options struct {
	// MigrationCPUCost is the fixed cost charged on each side of a
	// migration (saving the context at the source, loading it at the
	// destination). The context transfer itself additionally moves
	// contextBytes through the simulated memory system, so the total
	// measured migration cost lands near the paper's 2000 cycles with
	// the defaults. The active-message ablation (§6.1) lowers this.
	MigrationCPUCost sim.Cycles
}

const (
	// pollInterval is how often an idle core checks its migration flag
	// (paper: "sets a flag that the destination core periodically polls").
	pollInterval sim.Cycles = 100

	// contextBytes is the size of the per-thread context buffer that
	// migrations move between cores.
	contextBytes = 256
)

// DefaultOptions returns the costs used throughout the paper reproduction.
func DefaultOptions() Options {
	return Options{MigrationCPUCost: 550}
}

// System binds a machine to an engine and owns the cores and threads.
type System struct {
	eng   *sim.Engine
	mach  *machine.Machine
	opts  Options
	cores []*Core
	next  int // thread id allocator

	// speed caches Config().SpeedOf per core: the config methods copy the
	// whole topology struct, which is too expensive for Compute's hot path.
	speed []float64
}

// NewSystem creates the substrate. Thread context buffers are allocated
// from the machine's memory image, so migrations generate real coherence
// traffic.
func NewSystem(eng *sim.Engine, m *machine.Machine, opts Options) *System {
	s := &System{eng: eng, mach: m, opts: opts}
	cfg := m.Config()
	n := cfg.NumCores()
	s.cores = make([]*Core, n)
	s.speed = make([]float64, n)
	for i := 0; i < n; i++ {
		s.cores[i] = &Core{sys: s, id: i}
		s.speed[i] = cfg.SpeedOf(i)
	}
	return s
}

// Engine returns the simulation engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// Machine returns the simulated machine.
func (s *System) Machine() *machine.Machine { return s.mach }

// Options returns the substrate options.
func (s *System) Options() Options { return s.opts }

// Core returns core i.
func (s *System) Core(i int) *Core { return s.cores[i] }

// NumCores returns the number of cores.
func (s *System) NumCores() int { return len(s.cores) }

// FlushIdleAccounting folds any in-progress idle period on every core into
// the IdleCycles counters, so monitors sampling at arbitrary instants see
// up-to-date values.
func (s *System) FlushIdleAccounting() {
	now := s.eng.Now()
	for _, c := range s.cores {
		c.flushIdle(now)
	}
}

// Reset returns the substrate to its initial state for arena reuse across
// sweep repeats: thread ids restart at zero and every core forgets its
// idle-accounting history, so threads spawned after Reset see exactly the
// state a fresh System would give them. It panics if any core is still
// held or has queued threads — resetting under live threads would corrupt
// the engine's active-context count.
func (s *System) Reset() {
	for _, c := range s.cores {
		if c.holder != nil || len(c.waiters) != 0 {
			panic(fmt.Sprintf("exec: Reset with core %d busy (holder %v, %d queued)",
				c.id, c.holder != nil, len(c.waiters)))
		}
		c.idleSince = 0
		c.everUsed = false
	}
	s.next = 0
}

// Core is one simulated core: a FIFO-fair resource that at most one thread
// holds at a time.
type Core struct {
	sys       *System
	id        int
	holder    *Thread
	waiters   []*Thread
	idleSince sim.Time
	everUsed  bool
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Holder returns the thread currently executing on the core, or nil.
func (c *Core) Holder() *Thread { return c.holder }

// QueueLen returns the number of threads waiting for the core.
func (c *Core) QueueLen() int { return len(c.waiters) }

func (c *Core) flushIdle(now sim.Time) {
	if c.holder == nil && c.everUsed {
		c.sys.mach.Counters().Core(c.id).IdleCycles += uint64(now - c.idleSince)
		c.idleSince = now
	}
}

// acquire blocks t until it holds the core.
func (c *Core) acquire(t *Thread) {
	if c.holder == nil && len(c.waiters) == 0 {
		c.flushIdle(t.proc.Now())
		c.holder = t
		c.everUsed = true
		// Idle→busy: register with the engine's activity meter so it can
		// attribute fast-forwarded time to dead time (all cores idle).
		c.sys.eng.AddActive(1)
		return
	}
	start := t.proc.Now()
	c.waiters = append(c.waiters, t)
	t.proc.Park()
	if c.holder != t {
		panic(fmt.Sprintf("exec: core %d woke thread %q without handoff", c.id, t.name))
	}
	c.sys.mach.Counters().Core(c.id).QueueWait += uint64(t.proc.Now() - start)
}

// release hands the core to the next waiter, or marks it idle.
func (c *Core) release(t *Thread) {
	if c.holder != t {
		panic(fmt.Sprintf("exec: thread %q releasing core %d it does not hold", t.name, c.id))
	}
	if n := len(c.waiters); n > 0 {
		next := c.waiters[0]
		// Shift in place rather than re-slicing the head away: the queue
		// keeps its backing array, so enqueueing never re-allocates.
		copy(c.waiters, c.waiters[1:])
		c.waiters[n-1] = nil
		c.waiters = c.waiters[:n-1]
		c.holder = next
		next.proc.Unpark()
		return
	}
	c.holder = nil
	c.idleSince = t.proc.Now()
	c.sys.eng.AddActive(-1) // busy→idle
}

// Thread is a cooperative green thread bound to a home core, able to
// migrate to other cores for the duration of an operation.
type Thread struct {
	sys  *System
	proc *sim.Proc
	name string
	id   int

	home int // core the thread belongs to
	core int // core it currently executes on

	ctxBuf mem.Addr // simulated context-save area (contextBytes long)

	// batch is the thread's reusable cost batch (see Thread.Batch).
	batch *Batch

	// process identifies the owning process for the priority/fairness
	// extension (§6.2); 0 is the default process.
	process int
}

// Go spawns a thread on home core running body. The thread acquires its
// core before body runs and releases it when body returns.
func (s *System) Go(name string, home int, body func(t *Thread)) *Thread {
	if home < 0 || home >= len(s.cores) {
		panic(fmt.Sprintf("exec: home core %d out of range", home))
	}
	ctx, err := s.mach.Image().Alloc(contextBytes, 64)
	if err != nil {
		panic(fmt.Sprintf("exec: allocating context buffer: %v", err))
	}
	t := &Thread{sys: s, name: name, id: s.next, home: home, core: home, ctxBuf: ctx}
	s.next++
	t.proc = s.eng.Spawn(name, func(p *sim.Proc) {
		s.cores[home].acquire(t)
		body(t)
		s.cores[t.core].release(t)
	})
	return t
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// ID returns the thread's unique id.
func (t *Thread) ID() int { return t.id }

// Core returns the core the thread currently runs on.
func (t *Thread) Core() int { return t.core }

// Home returns the thread's home core.
func (t *Thread) Home() int { return t.home }

// Now returns the current simulated time.
func (t *Thread) Now() sim.Time { return t.proc.Now() }

// Proc exposes the underlying sim proc (for Join in drivers).
func (t *Thread) Proc() *sim.Proc { return t.proc }

// SetProcess tags the thread with an owning process id (priority/fairness
// extension).
func (t *Thread) SetProcess(pid int) { t.process = pid }

// Process returns the owning process id.
func (t *Thread) Process() int { return t.process }

// advance moves simulated time forward by d while charging busy cycles to
// the current core.
func (t *Thread) advance(d sim.Cycles) {
	if d == 0 {
		return
	}
	t.sys.mach.Counters().Core(t.core).BusyCycles += uint64(d)
	t.proc.Sleep(d)
}

// Compute charges d cycles of pure computation, scaled by the core's speed
// factor (heterogeneous-cores ablation).
func (t *Thread) Compute(d sim.Cycles) {
	speed := t.sys.speed[t.core]
	if speed != 1.0 {
		d = sim.Cycles(float64(d) * speed)
	}
	t.advance(d)
}

// Load charges a read of [addr, addr+size) through the memory hierarchy.
func (t *Thread) Load(addr mem.Addr, size int) {
	lat := t.sys.mach.Load(t.core, addr, size, t.proc.Now())
	t.advance(lat)
}

// Store charges a write of [addr, addr+size).
func (t *Thread) Store(addr mem.Addr, size int) {
	lat := t.sys.mach.Store(t.core, addr, size, t.proc.Now())
	t.advance(lat)
}

// LoadCompute interleaves a scan of [addr, addr+size) with perByte cycles
// of computation per byte, the shape of a directory-entry scan loop. The
// memory latency and compute cost are charged together in one event, which
// keeps big scans cheap to simulate.
func (t *Thread) LoadCompute(addr mem.Addr, size int, perByte float64) {
	lat := t.sys.mach.Load(t.core, addr, size, t.proc.Now())
	comp := sim.Cycles(float64(size) * perByte * t.sys.speed[t.core])
	t.advance(lat + comp)
}

// IdleUntil suspends the thread until simulated time target, releasing its
// current core for the duration: queued threads run meanwhile and the core
// accrues idle (not busy) cycles. It returns immediately when target is not
// in the future. This is how an open-loop service worker waits for the next
// request arrival — unlike Yield it does not need other threads queued, and
// unlike Compute it charges no work to the core.
func (t *Thread) IdleUntil(target sim.Time) {
	now := t.proc.Now()
	if target <= now {
		return
	}
	c := t.sys.cores[t.core]
	c.release(t)
	t.proc.Sleep(target - now)
	c.acquire(t)
}

// Block releases the thread's current core and parks the thread until
// another thread or timer calls Unblock; on wake it re-acquires the core.
// While blocked the core runs queued threads or accrues idle cycles,
// exactly like IdleUntil — Block is IdleUntil without a deadline. It is
// the primitive wait queues (sched.WaitList) are built from; Unblock must
// only be called on a thread currently parked in Block.
func (t *Thread) Block() {
	c := t.sys.cores[t.core]
	c.release(t)
	t.proc.Park()
	c.acquire(t)
}

// Unblock makes a thread parked in Block runnable at the current instant.
// The thread re-acquires its core before Block returns, queueing behind
// any holder.
func (t *Thread) Unblock() {
	t.proc.Unpark()
}

// Yield gives other threads queued on the current core a chance to run. If
// nobody is waiting it costs nothing.
func (t *Thread) Yield() {
	c := t.sys.cores[t.core]
	if len(c.waiters) == 0 {
		return
	}
	c.release(t)
	c.acquire(t)
}

// MigrateTo moves the thread to core dst, reproducing CoreTime's mechanism:
// the source core saves the context into the thread's shared buffer, the
// destination polls its migration flag, picks the thread up, and loads the
// context. The caller resumes on dst.
//
// The measured cost with default options is ≈2000 cycles (paper §5).
func (t *Thread) MigrateTo(dst int) {
	if dst == t.core {
		return
	}
	sys := t.sys
	ctr := sys.mach.Counters()

	// Save context on the source core (CPU cost + stores to the shared
	// buffer, which stay in the source's cache until pulled).
	t.Compute(sys.opts.MigrationCPUCost)
	t.Store(t.ctxBuf, contextBytes)
	ctr.Core(t.core).MigrationsOut++

	src := sys.cores[t.core]
	src.release(t)

	// The destination notices the flag at its next poll.
	t.proc.Sleep(pollInterval)

	dstCore := sys.cores[dst]
	dstCore.acquire(t)
	t.core = dst
	ctr.Core(dst).MigrationsIn++

	// Load the context on the destination: remote fetches of the buffer
	// lines, then fixed restore cost.
	t.Load(t.ctxBuf, contextBytes)
	t.Compute(sys.opts.MigrationCPUCost)
}

// ReturnHome migrates the thread back to its home core (the ct_end path).
func (t *Thread) ReturnHome() {
	t.MigrateTo(t.home)
}

// spinWait sleeps d cycles of backoff. If other threads are queued on the
// current core, the core is handed over for the duration so a spinning
// thread cannot starve the thread it is waiting for (which may be queued
// behind it after a migration).
func (t *Thread) spinWait(d sim.Cycles) {
	c := t.sys.cores[t.core]
	if len(c.waiters) == 0 {
		t.advance(d)
		return
	}
	c.release(t)
	t.proc.Sleep(d)
	c.acquire(t)
}

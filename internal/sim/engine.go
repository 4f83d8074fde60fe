// Package sim implements the deterministic discrete-event simulation engine
// that underlies the simulated multicore machine.
//
// The engine is process-oriented: each simulated thread of control is a
// *Proc whose body runs on a carrier, a pooled iter.Pull coroutine. Exactly
// one carrier or the engine runs at a time, and control transfers between
// them are explicit coroutine switches. Events with
// equal timestamps fire in the order they were scheduled. Together these
// rules make runs bit-reproducible for a given seed, which the benchmark
// harness relies on, and they mean simulated state (caches, directories,
// run queues) needs no locking.
//
// Time is measured in CPU cycles of the simulated machine (2 GHz for the
// paper's AMD configuration).
package sim

import (
	"fmt"

	"repro/internal/stats"
)

// Time is a point in simulated time, in cycles since the start of the run.
type Time uint64

// Cycles is a duration in simulated cycles.
type Cycles = Time

// event is an entry in the engine's pending-event heap. Exactly one of p or
// fn is set: p resumes a parked process, fn runs a callback inline in engine
// context (timers, monitors).
type event struct {
	at  Time
	seq uint64 // tie-break: equal-time events fire in schedule order
	p   *Proc
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap of events ordered by
// (at, seq). Events live by value in the slice — a typed heap instead of
// container/heap because the latter's interface{} Push/Pop boxed every
// event onto the garbage-collected heap, one allocation per simulated
// time-advance. The slice itself is the event pool: popped slots are
// cleared and reused by later pushes.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push inserts ev, keeping the (at, seq) heap order.
//
//o2:hotpath
func (h *eventHeap) push(ev event) {
	//o2:allowalloc "amortized growth: the backing array reaches steady-state capacity during warmup and is reused for the rest of the run"
	*h = append(*h, ev)
	// Sift up.
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest event.
//
//o2:hotpath
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // clear the vacated slot: release fn/proc references
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		next := l
		if r := l + 1; r < n && s.less(r, l) {
			next = r
		}
		if !s.less(next, i) {
			break
		}
		s[i], s[next] = s[next], s[i]
		i = next
	}
	return top
}

// Engine owns simulated time and the pending-event queue.
//
// All mutation of engine or simulation state must happen "in engine
// context": inside a Proc body, inside an At callback, or before Run is
// called. The engine is not safe for use from multiple OS threads.
type Engine struct {
	now     Time
	seq     uint64
	seed    uint64
	events  eventHeap
	procs   int // live (not yet finished) procs
	running *Proc
	stopped bool

	// pool holds the carriers that run proc bodies, created on the first
	// Spawn.
	pool *carrierPool

	// broken, when set, says why the engine refuses Spawn, Run and Reset:
	// it was closed, or a proc body panicked mid-run.
	broken string

	// limit is the current Run's time limit (0 = none). Proc.Sleep's
	// fast-forward path must not advance now past it, because Run would
	// otherwise have parked the proc's wake event beyond the limit.
	limit Time

	// active counts busy execution contexts (cores holding a thread),
	// maintained by the substrate through AddActive. It gates nothing —
	// fast-forward is decided purely by heap order — but it lets the
	// engine attribute skipped time to dead time (all cores idle).
	active int

	deadTime   Cycles // cycles skipped while no context was active
	fastSleeps uint64 // Sleeps that fast-forwarded without an event
	dispatched uint64 // events popped by Run
}

// NewEngine returns an engine with time at zero, no pending events, and
// seed zero.
func NewEngine() *Engine {
	return &Engine{}
}

// NewEngineSeeded returns an engine carrying the run's base seed.
// Components that need randomness derive private generators from it (see
// RNG) instead of sharing one source, so simulations on different engines —
// including engines running concurrently on separate goroutines — never
// share RNG state.
func NewEngineSeeded(seed uint64) *Engine {
	return &Engine{seed: seed}
}

// Seed returns the engine's base seed (zero when constructed with
// NewEngine).
func (e *Engine) Seed() uint64 { return e.seed }

// RNG returns a fresh generator for the named stream, derived purely from
// the engine seed and the stream number. Equal (seed, stream) pairs yield
// identical sequences; distinct streams are decorrelated. The returned
// generator is owned by the caller — the engine keeps no RNG state.
func (e *Engine) RNG(stream uint64) *stats.RNG {
	return stats.NewRNG(stats.DeriveSeed(e.seed, stream))
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Live returns the number of spawned procs that have not finished.
func (e *Engine) Live() int { return e.procs }

// Pending returns the number of queued events. A drained engine (Live and
// Pending both zero) is eligible for Reset.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run in engine context at time t. Scheduling in the
// past (t < Now) panics: it would silently reorder history.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) scheduled before now=%d", t, e.now))
	}
	e.push(event{at: t, fn: fn})
}

// After schedules fn to run in engine context d cycles from now. A delay
// that would overflow simulated time panics explicitly instead of wrapping
// past zero and tripping At's scheduled-before-now check with a misleading
// message.
func (e *Engine) After(d Cycles, fn func()) {
	t := e.now + d
	if t < e.now {
		panic(fmt.Sprintf("sim: After(%d) overflows simulated time (now=%d)", d, e.now))
	}
	e.At(t, fn)
}

// Every schedules fn to run every period cycles, starting one period from
// now, until fn returns false or the run ends.
func (e *Engine) Every(period Cycles, fn func() bool) {
	if period == 0 {
		panic("sim: Every with zero period")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.After(period, tick)
		}
	}
	e.After(period, tick)
}

// push stamps ev with the tie-breaking sequence number and enqueues it.
//
//o2:hotpath
func (e *Engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

// Run executes events until the queue is empty, Stop is called, or time
// would pass limit (limit 0 means no limit). It returns the final simulated
// time. Events at exactly t == limit still fire.
func (e *Engine) Run(limit Time) Time {
	e.mustBeUsable("Run")
	// A proc panic leaves through here; leave running as it was found.
	running := e.running
	defer func() { e.running = running }()
	e.stopped = false
	e.limit = limit
	for len(e.events) > 0 && !e.stopped {
		if limit != 0 && e.events[0].at > limit {
			// Leave the event pending so a later Run can continue.
			e.now = limit
			break
		}
		ev := e.events.pop()
		if ev.at < e.now {
			panic("sim: event queue went backwards")
		}
		if e.active == 0 && ev.at > e.now {
			e.deadTime += ev.at - e.now
		}
		e.now = ev.at
		e.dispatched++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		e.dispatch(ev.p)
	}
	if limit != 0 && e.now < limit && len(e.events) == 0 {
		e.now = limit
	}
	return e.now
}

// Stop makes Run return after the current event completes. Pending events
// remain queued; a subsequent Run resumes where the previous one left off.
func (e *Engine) Stop() { e.stopped = true }

// dispatch resumes p's carrier until p sleeps, parks or returns. A
// returned proc is reaped and its carrier goes back to the free list.
//
//o2:hotpath
func (e *Engine) dispatch(p *Proc) {
	if p.state == procDead {
		return
	}
	prev := e.running
	e.running = p
	p.state = procRunning
	c := p.c
	c.next()
	e.running = prev
	if p.state != procDead {
		return
	}
	e.procs--
	for _, w := range p.waiters {
		w.Unpark()
	}
	p.waiters = nil
	p.c, c.p, c.body = nil, nil, nil
	//o2:allowalloc "amortized: capacity reaches the peak live-proc count"
	e.pool.free = append(e.pool.free, c)
}

// Running returns the proc currently executing, or nil when the engine is
// running a timer callback or is between events.
func (e *Engine) Running() *Proc { return e.running }

// AddActive registers delta busy execution contexts. The execution
// substrate calls AddActive(+1) when a core goes from idle to holding a
// thread and AddActive(-1) when it goes idle again, so ActiveCount()==0
// means "every core is idle" and any simulated time the engine skips over
// is dead time, not modeled work. Registration is bookkeeping only: the
// fast-forward decision itself depends purely on (at, seq) heap order, so
// an unregistered driver cannot make runs diverge.
func (e *Engine) AddActive(delta int) {
	e.active += delta
	if e.active < 0 {
		panic("sim: negative active context count")
	}
}

// ActiveCount returns the number of registered busy contexts.
func (e *Engine) ActiveCount() int { return e.active }

// DeadTime returns the simulated cycles skipped while no context was
// active — time the engine fast-forwarded over instead of simulating.
func (e *Engine) DeadTime() Cycles { return e.deadTime }

// FastSleeps returns how many Proc.Sleep calls took the fast-forward path
// (advanced time without scheduling an event or switching carriers).
func (e *Engine) FastSleeps() uint64 { return e.fastSleeps }

// EventsDispatched returns how many events Run has popped. Tests use it to
// assert coalescing contracts: a batched operation must cost one event, not
// one per line or per request.
func (e *Engine) EventsDispatched() uint64 { return e.dispatched }

// Reset returns the engine to its initial state — time zero, empty queue,
// the given seed — while keeping the event heap's backing array, so a sweep
// can reuse one engine across repeats without reallocating. It panics if
// the previous run left live procs or pending events: an arena reset is
// only sound on a fully drained engine.
func (e *Engine) Reset(seed uint64) {
	e.mustBeUsable("Reset")
	if e.running != nil || e.procs != 0 || len(e.events) != 0 {
		panic(fmt.Sprintf("sim: Reset with %d live procs and %d pending events", e.procs, len(e.events)))
	}
	e.now = 0
	e.seq = 0
	e.seed = seed
	e.stopped = false
	e.limit = 0
	e.active = 0
	e.deadTime = 0
	e.fastSleeps = 0
	e.dispatched = 0
	e.events = e.events[:0]
}

// Close stops every proc the engine still holds, live or pooled. A proc
// parked in Sleep or Park unwinds there without running further; its
// carrier recovers the unwinding, so proc bodies need no teardown code.
// Live and Pending keep their values, and later Spawn, Run and Reset calls
// panic. Close must be called outside Run; it is idempotent.
//
// A drained engine needs no Close: its carriers are stopped when the
// engine is garbage collected. An engine left with live procs — a run cut
// off by a time limit — must be closed, because those procs' stacks keep
// it reachable.
func (e *Engine) Close() {
	if e.running != nil {
		panic(fmt.Sprintf("sim: Close called from proc %q", e.running.name))
	}
	if e.broken == "" {
		e.broken = "Close"
	}
	if e.pool == nil {
		return
	}
	// Unwind each body as its own running proc, with fast-forward off: a
	// deferred call that sleeps (o2's deferred Op.End may migrate) then
	// unwinds too, instead of failing mustBeRunning or running on.
	e.stopped = true
	for _, c := range e.pool.all {
		if c.p != nil {
			e.running = c.p
			c.stop()
		}
	}
	e.running = nil
	e.pool.close()
}

func (e *Engine) mustBeUsable(op string) {
	if e.broken != "" {
		panic(fmt.Sprintf("sim: %s after %s", op, e.broken))
	}
}

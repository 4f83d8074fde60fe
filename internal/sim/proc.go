package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
)

type procState uint8

const (
	procNew procState = iota
	procRunning
	procSleeping // wake event queued
	procParked   // waiting for an explicit Unpark
	procDead
)

func (s procState) String() string {
	switch s {
	case procNew:
		return "new"
	case procRunning:
		return "running"
	case procSleeping:
		return "sleeping"
	case procParked:
		return "parked"
	case procDead:
		return "dead"
	}
	return "invalid"
}

// Proc is a simulated thread of control. Its body runs on a carrier — a
// coroutine the engine switches to and from explicitly — so exactly one
// proc (or the engine itself) executes at a time, and proc bodies may touch
// shared simulation state freely.
//
// Procs advance simulated time only through Sleep; pure computation inside
// a proc body is instantaneous in simulated time.
type Proc struct {
	eng   *Engine
	name  string
	state procState
	c     *carrier // the carrier running the body; nil once reaped

	// waiters are procs parked in Join, woken when this proc finishes.
	waiters []*Proc
}

// Spawn creates a proc named name executing body and schedules it to start
// at the current time. It must be called in engine context or before Run.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	e.mustBeUsable("Spawn")
	if e.pool == nil {
		e.pool = newCarrierPool(e)
	}
	c := e.pool.get()
	p := &Proc{eng: e, name: name, state: procSleeping, c: c}
	c.p, c.body = p, body
	e.procs++
	e.push(event{at: e.now, p: p})
	return p
}

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the proc's name (used in diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the proc for d cycles of simulated time. Sleep(0) yields
// to the engine and resumes after other events scheduled for the current
// instant.
//
// Fast-forward: when the wake time strictly precedes every pending event
// (and no Stop or Run limit intervenes), the proc's wake event would be
// popped next with nothing in between, so Sleep jumps Engine.now straight
// to the wake time and returns without a heap push or carrier switch.
// Strictness preserves the (at, seq) contract: an equal-time pending event
// carries a smaller seq and must fire first, so it forces the slow path.
//
//o2:hotpath
func (p *Proc) Sleep(d Cycles) {
	p.mustBeRunning("Sleep")
	e := p.eng
	target := e.now + d
	if target < e.now {
		sleepOverflow(d, e.now)
	}
	if !e.stopped && (e.limit == 0 || target <= e.limit) &&
		(len(e.events) == 0 || target < e.events[0].at) {
		if e.active == 0 {
			e.deadTime += d
		}
		e.fastSleeps++
		e.now = target
		return
	}
	p.state = procSleeping
	e.push(event{at: target, p: p})
	p.switchToEngine()
}

// Park suspends the proc indefinitely; another proc or timer must call
// Unpark to make it runnable again.
func (p *Proc) Park() {
	p.mustBeRunning("Park")
	p.state = procParked
	p.switchToEngine()
}

// Unpark makes a parked proc runnable at the current simulated time. It is
// a no-op when the proc is not parked (already runnable, sleeping, or
// dead), which lets wakers race benignly with timeouts.
func (p *Proc) Unpark() {
	if p.state != procParked {
		return
	}
	p.state = procSleeping
	p.eng.push(event{at: p.eng.now, p: p})
}

// Done reports whether the proc body has returned.
func (p *Proc) Done() bool { return p.state == procDead }

// Join parks the calling proc until target finishes. Joining a finished
// proc returns immediately.
func (p *Proc) Join(target *Proc) {
	p.mustBeRunning("Join")
	if target.state == procDead {
		return
	}
	target.waiters = append(target.waiters, p)
	p.Park()
}

// sleepOverflow lives outside Sleep so the hot path stays free of fmt.
func sleepOverflow(d Cycles, now Time) {
	panic(fmt.Sprintf("sim: Sleep(%d) overflows simulated time (now=%d)", d, now))
}

// switchToEngine returns control to dispatch and resumes when the engine
// dispatches p again. When the engine is closed instead, yield reports
// false and the body unwinds to its carrier's root.
//
//o2:hotpath
func (p *Proc) switchToEngine() {
	if !p.c.yield(struct{}{}) {
		panic(errCarrierStopped)
	}
}

func (p *Proc) mustBeRunning(op string) {
	if p.eng.running != p {
		panic(fmt.Sprintf("sim: %s called on proc %q in state %v from outside its own body",
			op, p.name, p.state))
	}
}

// WaitGroup counts in-flight procs, for proc bodies that fork helpers and
// must wait for all of them. It is the simulated-time analogue of
// sync.WaitGroup; all methods must be called in engine context.
type WaitGroup struct {
	count  int
	waiter *Proc
}

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 && wg.waiter != nil {
		w := wg.waiter
		wg.waiter = nil
		w.Unpark()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks p until the counter reaches zero. At most one proc may wait on
// a WaitGroup at a time.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	if wg.waiter != nil {
		panic("sim: concurrent WaitGroup.Wait")
	}
	wg.waiter = p
	p.Park()
}

// A carrier is one iter.Pull coroutine that runs proc bodies back to back.
// dispatch resumes it with next; Sleep and Park hand control back with
// yield. When a body returns, the carrier yields once more and waits:
// dispatch reaps the proc and frees the carrier, and the next Spawn — in
// the same run or after Reset — hands it a new body. A steady-state spawn
// therefore allocates only the Proc; starting a carrier costs a dozen
// allocations, for the coroutine and the state and closures iter.Pull
// shares between next, stop and yield.
type carrier struct {
	p     *Proc // the proc being run; nil while free
	body  func(*Proc)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// errCarrierStopped unwinds a proc body whose carrier was stopped: Sleep
// and Park panic with it when yield reports false, and the carrier's root
// recovers it, so proc bodies need no teardown code of their own.
var errCarrierStopped = errors.New("sim: carrier stopped")

// loop is the carrier's coroutine body.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for c.run() && yield(struct{}{}) {
	}
}

// run executes the current body. It reports false when the carrier was
// stopped mid-body. A panic, or runtime.Goexit, leaves the engine unusable;
// a panic continues as a *ProcPanic, which iter.Pull carries out of next to
// Run's caller.
func (c *carrier) run() (finished bool) {
	p := c.p
	defer func() {
		if finished {
			return
		}
		switch r := recover(); r {
		case errCarrierStopped:
		case nil: // runtime.Goexit, for example t.FailNow in a test body
			p.eng.broken = fmt.Sprintf("proc %q exited", p.name)
		default:
			p.eng.broken = fmt.Sprintf("proc %q panicked", p.name)
			panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
		}
	}()
	c.body(p)
	p.state = procDead
	return true
}

// ProcPanic is the value Run panics with when a proc body panics. The
// panic leaves the other live procs suspended mid-body, so the engine
// refuses further Spawn, Run and Reset calls; Close stops those procs.
type ProcPanic struct {
	Proc  string // the panicking proc's name
	Value any    // what the body panicked with
	Stack []byte // the proc's stack at the panic
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v\n\nproc stack:\n%s", pp.Proc, pp.Value, pp.Stack)
}

// Unwrap returns the panic value when it is an error.
func (pp *ProcPanic) Unwrap() error {
	err, _ := pp.Value.(error)
	return err
}

// carrierPool holds an engine's carriers. It is an object of its own so
// that free carriers, parked between bodies, hold no pointer back to the
// engine: a drained engine stays collectable, and a cleanup registered on
// it stops the pool's coroutines when it is dropped.
type carrierPool struct {
	all  []*carrier
	free []*carrier
}

func newCarrierPool(e *Engine) *carrierPool {
	cp := new(carrierPool)
	runtime.AddCleanup(e, (*carrierPool).close, cp)
	return cp
}

// get returns a free carrier, or starts a new one.
func (cp *carrierPool) get() *carrier {
	if n := len(cp.free); n > 0 {
		c := cp.free[n-1]
		cp.free[n-1] = nil
		cp.free = cp.free[:n-1]
		return c
	}
	c := new(carrier)
	c.next, c.stop = iter.Pull(c.loop)
	cp.all = append(cp.all, c)
	return c
}

// close stops every carrier. A carrier parked mid-body unwinds it.
func (cp *carrierPool) close() {
	for _, c := range cp.all {
		c.stop()
	}
	cp.all, cp.free = nil, nil
}

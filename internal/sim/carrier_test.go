package sim

// Tests for the carriers that run proc bodies: pooled reuse, teardown by
// Close, and panics that surface from Run.

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestSpawnReusesCarriers pins the pool's allocation contract: once the
// pool and the event heap have reached a run's peak size, a
// spawn-and-drain cycle allocates only the Procs themselves.
func TestSpawnReusesCarriers(t *testing.T) {
	const procs = 16
	e := NewEngine()
	body := func(p *Proc) {
		p.Sleep(1)
		p.Sleep(2)
	}
	cycle := func() {
		for i := 0; i < procs; i++ {
			e.Spawn("worker", body)
		}
		e.Run(0)
		e.Reset(0)
	}
	cycle() // warm-up: start the carriers, grow the heap
	if got := len(e.pool.all); got != procs {
		t.Fatalf("%d carriers after a %d-proc run, want %d", got, procs, procs)
	}
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs > procs {
		t.Errorf("spawn-and-drain cycle allocated %v times for %d spawns, want at most 1 per spawn", allocs, procs)
	}
	if got := len(e.pool.all); got != procs {
		t.Errorf("pool grew to %d carriers across reused runs, want %d", got, procs)
	}
}

// TestStaleProcAfterCarrierReuse checks that a finished proc keeps its
// dead-proc semantics after its carrier runs another proc's body.
func TestStaleProcAfterCarrierReuse(t *testing.T) {
	e := NewEngine()
	var trace []string
	old := e.Spawn("old", func(p *Proc) {
		p.Sleep(5)
		trace = append(trace, "old")
	})
	c := old.c
	e.Run(0)
	if !old.Done() {
		t.Fatal("old proc not done after a drained run")
	}
	reuser := e.Spawn("new", func(p *Proc) {
		old.Unpark() // no-op: old is dead, not parked
		if e.Pending() != 0 {
			t.Error("Unpark of a dead proc queued an event")
		}
		p.Join(old) // returns at once
		trace = append(trace, "new")
		p.Sleep(3)
		if !old.Done() {
			t.Error("old proc revived by its carrier's reuse")
		}
	})
	if reuser.c != c {
		t.Fatal("new proc did not reuse the old proc's carrier")
	}
	start := e.Now()
	if end := e.Run(0); end != start+3 {
		t.Errorf("run ended at %d, want %d", end, start+3)
	}
	if got := strings.Join(trace, ","); got != "old,new" {
		t.Errorf("trace = %s, want old,new", got)
	}
	if e.Live() != 0 {
		t.Errorf("Live = %d after drain", e.Live())
	}
}

// TestCloseUnwindsLiveProcs stops procs parked in Sleep and Park: each
// body unwinds from where it was suspended, deferred calls run — even one
// that sleeps — and no statement after the suspension point does.
func TestCloseUnwindsLiveProcs(t *testing.T) {
	e := NewEngine()
	var unwound, ranOn []string
	spawn := func(name string, wait func(p *Proc)) {
		e.Spawn(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			wait(p)
			ranOn = append(ranOn, name)
		})
	}
	spawn("sleeper", func(p *Proc) { p.Sleep(1000) })
	spawn("parked", func(p *Proc) { p.Park() })
	spawn("deferred-sleep", func(p *Proc) {
		defer p.Sleep(1)
		p.Park()
	})
	e.Spawn("drained", func(p *Proc) {})
	e.Run(50)
	spawn("unstarted", func(p *Proc) {}) // spawned after Run, never dispatched
	if e.Live() != 4 {
		t.Fatalf("Live = %d before Close, want 4", e.Live())
	}
	e.Close()
	e.Close() // idempotent
	slices.Sort(unwound)
	if got := strings.Join(unwound, ","); got != "deferred-sleep,parked,sleeper" {
		t.Errorf("unwound = %s, want deferred-sleep,parked,sleeper", got)
	}
	if len(ranOn) != 0 {
		t.Errorf("bodies ran past their suspension point: %v", ranOn)
	}
	if e.Live() != 4 {
		t.Errorf("Live = %d after Close, want it unchanged at 4", e.Live())
	}
	for _, op := range []struct {
		name string
		call func()
	}{
		{"Spawn", func() { e.Spawn("late", func(p *Proc) {}) }},
		{"Run", func() { e.Run(0) }},
		{"Reset", func() { e.Reset(0) }},
	} {
		msg := panicMessage(op.call)
		if want := "sim: " + op.name + " after Close"; msg != want {
			t.Errorf("%s on a closed engine: panic %q, want %q", op.name, msg, want)
		}
	}
}

// TestProcPanicReachesRunCaller checks that a panicking proc body
// surfaces from Run as a *ProcPanic naming the proc and wrapping the
// original value, and that the engine then refuses further use.
func TestProcPanicReachesRunCaller(t *testing.T) {
	errBoom := errors.New("boom")
	e := NewEngine()
	e.Spawn("bystander", func(p *Proc) { p.Sleep(100) })
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(10)
		panic(errBoom)
	})
	var r any
	func() {
		defer func() { r = recover() }()
		e.Run(0)
	}()
	pp, ok := r.(*ProcPanic)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want *ProcPanic", r, r)
	}
	if pp.Proc != "faulty" || pp.Value != errBoom || !errors.Is(pp, errBoom) {
		t.Errorf("ProcPanic = {Proc: %q, Value: %v}, want faulty wrapping boom", pp.Proc, pp.Value)
	}
	if !strings.Contains(pp.Error(), `proc "faulty" panicked: boom`) ||
		!strings.Contains(string(pp.Stack), "TestProcPanicReachesRunCaller") {
		t.Errorf("ProcPanic lacks the proc name or the body's stack:\n%s", pp.Error())
	}
	if e.Running() != nil {
		t.Errorf("Running = %q after the panic, want nil", e.Running().Name())
	}
	for _, op := range []struct {
		name string
		call func()
	}{
		{"Run", func() { e.Run(0) }},
		{"Reset", func() { e.Reset(0) }},
	} {
		msg := panicMessage(op.call)
		if want := "sim: " + op.name + ` after proc "faulty" panicked`; msg != want {
			t.Errorf("%s after a proc panic: panic %q, want %q", op.name, msg, want)
		}
	}
	e.Close() // stops the bystander
}

// TestProcGoexitReachesRunCaller checks that runtime.Goexit in a proc
// body (t.FailNow, for one) exits the goroutine that called Run, as it
// would have exited the body's own goroutine, and leaves the engine
// refusing further runs.
func TestProcGoexitReachesRunCaller(t *testing.T) {
	e := NewEngine()
	e.Spawn("quitter", func(p *Proc) { runtime.Goexit() })
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run(0)
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned normally after its proc called runtime.Goexit")
	}
	if msg, want := panicMessage(func() { e.Run(0) }), `sim: Run after proc "quitter" exited`; msg != want {
		t.Errorf("Run after Goexit: panic %q, want %q", msg, want)
	}
}

func panicMessage(f func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	f()
	return ""
}

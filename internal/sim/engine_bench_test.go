package sim

import "testing"

// BenchmarkEngineEvents measures the engine's event loop: schedule one
// timer, dispatch it, repeat — the push/pop cost every simulated
// time-advance pays. A backlog of far-future events keeps the heap at a
// realistic depth so sift costs are included.
func BenchmarkEngineEvents(b *testing.B) {
	eng := NewEngine()
	for i := 0; i < 1024; i++ {
		eng.At(Time(1<<40)+Time(i), func() {})
	}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.After(1, tick)
	eng.Run(Time(1 << 39))
	if n < b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkEngineProcSleep measures a lone proc advancing time. With
// nothing else pending every Sleep takes the fast-forward path, so this is
// the cost of a Sleep that needs no switch; BenchmarkEngineProcSwitch
// measures one that does.
func BenchmarkEngineProcSleep(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	eng.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	eng.Run(0)
}

// BenchmarkEngineProcSwitch measures the proc switch: two procs sleep in
// turn for equal times, so each Sleep finds the other proc's equal-time
// wake event pending, cannot fast-forward, and costs a full
// proc→engine→proc handoff through the event heap.
func BenchmarkEngineProcSwitch(b *testing.B) {
	eng := NewEngine()
	body := func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			p.Sleep(1)
		}
	}
	eng.Spawn("ping", body)
	eng.Spawn("pong", body)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(0)
	if eng.FastSleeps() != 0 {
		b.Fatalf("%d sleeps fast-forwarded; every sleep should switch", eng.FastSleeps())
	}
}

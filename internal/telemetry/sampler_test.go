package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/perfctr"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeMachine drives a sampler without a real machine: a counter set
// whose values the test scripts directly.
type fakeMachine struct {
	set    *perfctr.Set
	chipOf []int
}

func newFakeMachine(ncores, perChip int) *fakeMachine {
	chipOf := make([]int, ncores)
	for i := range chipOf {
		chipOf[i] = i / perChip
	}
	return &fakeMachine{set: perfctr.NewSet(ncores), chipOf: chipOf}
}

func noQueue(int) int { return 0 }

func TestProbeWindows(t *testing.T) {
	m := newFakeMachine(4, 2)
	s := NewSampler(100, 8, 4, 2)

	// Window 1: core 0 busy 60/100 cycles, socket 1 accrues DRAM queueing.
	m.set.Core(0).BusyCycles = 60
	m.set.Core(0).IdleCycles = 40
	m.set.Core(2).DRAMQueueCycles = 30
	s.Probe(100, m.set, m.chipOf, 0, noQueue, 3, nil)

	// Window 2: core 0 runs another 10 busy cycles; dead time appears.
	m.set.Core(0).BusyCycles = 70
	s.Probe(200, m.set, m.chipOf, 50, noQueue, 0, nil)

	if s.NumSamples() != 2 {
		t.Fatalf("NumSamples = %d, want 2", s.NumSamples())
	}
	s0 := s.SampleAt(0)
	if s0.At != 100 || s0.Window != 100 {
		t.Fatalf("sample 0 at %d window %d, want 100/100", s0.At, s0.Window)
	}
	if s0.Busy[0] != 0.6 || s0.Idle[0] != 0.4 {
		t.Fatalf("core 0 busy/idle = %v/%v, want 0.6/0.4", s0.Busy[0], s0.Idle[0])
	}
	if s0.DramQ[1] != 30 || s0.DramQ[0] != 0 {
		t.Fatalf("socket DRAM queue deltas = %v, want [0 30]", s0.DramQ)
	}
	if s0.Depth != 3 {
		t.Fatalf("queue depth = %d, want 3", s0.Depth)
	}
	s1 := s.SampleAt(1)
	if s1.Busy[0] != 0.1 {
		t.Fatalf("window 2 core 0 busy = %v, want the 0.1 delta", s1.Busy[0])
	}
	if s1.DramQ[1] != 0 {
		t.Fatalf("window 2 socket 1 DRAM delta = %v, want 0 (no new queueing)", s1.DramQ[1])
	}
	if s1.Dead != 0.5 {
		t.Fatalf("window 2 dead fraction = %v, want 0.5", s1.Dead)
	}
}

func TestProbeSchedFill(t *testing.T) {
	m := newFakeMachine(2, 1)
	s := NewSampler(10, 4, 2, 2)
	fill := func(placed []int32) {
		placed[1] = 7
	}
	s.Probe(10, m.set, m.chipOf, 0, noQueue, 0, fill)
	sm := s.SampleAt(0)
	if sm.Placed[1] != 7 {
		t.Fatalf("sched fill not recorded: %+v", sm)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	m := newFakeMachine(1, 1)
	s := NewSampler(10, 3, 1, 1)
	for i := 1; i <= 5; i++ {
		s.Probe(sim.Time(i*10), m.set, m.chipOf, 0, noQueue, i, nil)
	}
	if s.NumSamples() != 3 || s.TotalSamples() != 5 {
		t.Fatalf("held %d / total %d, want 3 / 5", s.NumSamples(), s.TotalSamples())
	}
	for i := 0; i < 3; i++ {
		want := sim.Time((i + 3) * 10)
		if got := s.SampleAt(i).At; got != want {
			t.Fatalf("sample %d at %d, want %d (newest three, oldest first)", i, got, want)
		}
	}
}

func TestZeroWindowProbeIgnored(t *testing.T) {
	m := newFakeMachine(1, 1)
	s := NewSampler(10, 4, 1, 1)
	s.Probe(10, m.set, m.chipOf, 0, noQueue, 0, nil)
	s.Probe(10, m.set, m.chipOf, 0, noQueue, 0, nil) // same instant: no window
	if s.NumSamples() != 1 {
		t.Fatalf("zero-width window must be skipped, held %d", s.NumSamples())
	}
}

func TestResetMatchesFresh(t *testing.T) {
	m := newFakeMachine(2, 1)
	drive := func(s *Sampler) {
		m.set.Core(0).BusyCycles += 5
		s.Probe(10, m.set, m.chipOf, 0, noQueue, 1, nil)
	}
	reused := NewSampler(10, 4, 2, 2)
	drive(reused)
	reused.Reset()
	m.set.Reset()

	fresh := NewSampler(10, 4, 2, 2)
	drive(fresh)
	m.set.Reset()
	// Drive the reused sampler identically after Reset; both must agree.
	drive(reused)

	a, b := fresh.SampleAt(0), reused.SampleAt(0)
	if a.Busy[0] != b.Busy[0] || a.At != b.At || fresh.TotalSamples() != reused.TotalSamples() {
		t.Fatalf("reset sampler diverges from fresh: %+v vs %+v", a, b)
	}
}

func TestWriteTraceSchema(t *testing.T) {
	m := newFakeMachine(2, 1)
	s := NewSampler(100, 8, 2, 2)
	m.set.Core(0).BusyCycles = 50
	m.set.Core(1).DRAMQueueCycles = 10
	s.Probe(100, m.set, m.chipOf, 0, noQueue, 2, nil)

	var buf bytes.Buffer
	err := s.WriteTrace(&buf, ExportConfig{
		ClockHz: 1e9,
		Events: []trace.Event{
			{At: 42, Kind: trace.EvPlace, Name: "obj", Arg1: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	seen := map[string]bool{}
	last := -1.0
	for _, ev := range doc.TraceEvents {
		if ev.Ts == nil || ev.Pid == nil || ev.Tid == nil || ev.Ph == "" {
			t.Fatalf("event %+v missing a required field", ev)
		}
		if *ev.Ts < last {
			t.Fatalf("timestamps not monotone: %v after %v", *ev.Ts, last)
		}
		last = *ev.Ts
		seen[ev.Ph] = true
		if ev.Name == "place" {
			seen["sched"] = true
		}
	}
	for _, want := range []string{"M", "X", "C", "i", "sched"} {
		if !seen[want] {
			t.Fatalf("no %q event in the timeline; phases seen: %v", want, seen)
		}
	}
}

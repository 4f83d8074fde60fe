package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/o2"
)

// repeatRecord is one cell repeat run by the sweep: its host time and Go
// heap allocation, its runner metrics and the outcome of its checks.
type repeatRecord struct {
	round, cell, repeat int
	start, dur          time.Duration // since the bench's epoch
	allocBytes, allocs  uint64
	ops                 float64
	speed               float64 // host slowdown sampled just before the repeat
	metrics             o2.Metrics
	err                 error
}

// bench runs one workload at one seed.
type bench struct {
	w      *workload
	seed   uint64
	quick  bool
	cells  []o2.Cell
	epoch  time.Time
	spans  *spanLog // nil unless traced
	kernel *refKernel

	// ref holds the first round's metrics, cell × repeat.
	ref [][]o2.Metrics

	attempted, failed int
	failures          []string
}

func newBench(w *workload, seed uint64, quick bool) *bench {
	return &bench{w: w, seed: seed, quick: quick, cells: expandCells(w.sweep(seed, quick)),
		epoch: time.Now(), kernel: newRefKernel()}
}

func (b *bench) since() time.Duration { return time.Since(b.epoch) }

func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// setupSample is one cold build of every cell of the workload, and the
// host slowdown sampled just before it.
type setupSample struct {
	newRuntime, newScenario time.Duration
	speed                   float64
}

func (s setupSample) total() time.Duration { return s.newRuntime + s.newScenario }

// setup times cold builds of every cell — o2.New plus the scenario
// constructor — and returns one sample per build of the whole set.
func (b *bench) setup() ([]setupSample, error) {
	samples := make([]setupSample, 0, b.w.setupSamples)
	// The collector stays off while a sample builds, so a collection of
	// an earlier sample's garbage never lands inside a later sample.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < b.w.setupSamples; i++ {
		s := setupSample{speed: b.kernel.speed()}
		for _, c := range b.cells {
			c = withRepeat(c, b.seed, 0)
			t0 := b.since()
			rt, err := o2.New(runtimeOptions(c)...)
			if err != nil {
				return nil, fmt.Errorf("setup %s: %w", policy(c), err)
			}
			t1 := b.since()
			if _, err := b.w.build(rt, c); err != nil {
				return nil, fmt.Errorf("setup %s: %w", policy(c), err)
			}
			t2 := b.since()
			s.newRuntime += t1 - t0
			s.newScenario += t2 - t1
			b.spans.add("new_runtime", "setup", t0, t1-t0, map[string]any{"policy": policy(c), "sample": i})
			b.spans.add("new_scenario", "setup", t1, t2-t1, map[string]any{"policy": policy(c), "sample": i})
		}
		samples = append(samples, s)
		runtime.GC()
	}
	return samples, nil
}

// window runs sweep rounds, closed loop, while less than budget has
// passed since it started; it always runs at least one round.
func (b *bench) window(budget time.Duration) []repeatRecord {
	var recs []repeatRecord
	start := b.since()
	for round := 0; round == 0 || b.since()-start < budget; round++ {
		recs = b.round(round, recs)
	}
	return recs
}

// roundSeed is the sweep seed of a round: the workload seed for the first
// round, then seeds derived from it, so each round measures repeats the
// earlier rounds did not and a run's median does not rest on a few
// simulations.
func roundSeed(seed uint64, round int) uint64 {
	if round == 0 {
		return seed
	}
	return o2.DeriveSeed(seed, uint64(round))
}

// round runs the workload's sweep once, wrapping the standard runner in a
// timing span per repeat, and appends a record per repeat to recs.
func (b *bench) round(round int, recs []repeatRecord) []repeatRecord {
	sw := b.w.sweep(roundSeed(b.seed, round), b.quick)
	sw.Repeats = b.w.repeats
	sw.Workers = 1
	inner := sw.Runner
	first := len(recs)
	sw.Runner = func(c o2.Cell) (m o2.Metrics, err error) {
		if c.Repeat == 0 {
			// The previous cell's arena is garbage now; free it before
			// this cell builds its own, so the peak holds one arena.
			runtime.GC()
		}
		speed := b.kernel.speed()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := b.since()
		func() {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("runner panicked: %v", p)
				}
			}()
			m, err = inner(c)
		}()
		dur := b.since() - t0
		runtime.ReadMemStats(&after)
		rec := repeatRecord{
			round: round, cell: c.Index, repeat: c.Repeat, start: t0, dur: dur,
			allocBytes: after.TotalAlloc - before.TotalAlloc,
			allocs:     after.Mallocs - before.Mallocs,
			speed:      speed,
			metrics:    m,
			err:        err,
		}
		if err == nil {
			rec.ops, rec.err = b.w.ops(c, m)
		}
		recs = append(recs, rec)
		b.spans.add("cell/"+policy(c), "cell", t0, dur, map[string]any{"round": round, "repeat": c.Repeat})
		return m, err
	}
	// The sweep reports its first failing repeat; every repeat's own
	// outcome is already in recs, where account counts it.
	_, _ = sw.Run()
	b.account(round, recs[first:])
	return recs
}

// account counts a round's repeats as attempted and failed, and keeps
// the first round's metrics for the rebuild check and the digest.
func (b *bench) account(round int, recs []repeatRecord) {
	if b.ref == nil {
		b.ref = make([][]o2.Metrics, len(b.cells))
		for i := range b.ref {
			b.ref[i] = make([]o2.Metrics, b.w.repeats)
		}
		for _, r := range recs {
			b.ref[r.cell][r.repeat] = r.metrics
		}
	}
	if missing := len(b.cells)*b.w.repeats - len(recs); missing > 0 {
		b.attempted += missing
		b.failed += missing
		b.failures = append(b.failures, fmt.Sprintf("round %d: %d repeats never ran", round, missing))
	}
	for _, r := range recs {
		b.attempted++
		if r.err != nil {
			b.fail("round %d %s repeat %d: %v", round, policy(b.cells[r.cell]), r.repeat, r.err)
		}
	}
}

// steady is what a window's steady repeats measured. One repeat is the
// same repeat index of every cell, so it covers both policies. Host times
// are at the reference speed (see speed.go) unless marked raw.
type steady struct {
	repeatMS      []float64 // host ms per repeat
	rawRepeatMS   []float64 // wall-clock host ms per repeat
	allocKB       []float64 // Go heap KB allocated per repeat
	allocs        []float64 // Go heap allocations per repeat
	speeds        []float64 // host slowdown per cell repeat
	cellMS        map[string][]float64
	ops           float64 // simulated operations over all steady repeats
	hostSeconds   float64
	rounds        int
	windowSeconds float64
}

// summarize folds a window's records, which the sweeps append in order,
// into per-repeat figures, leaving out each round's warm-up repeat.
func (b *bench) summarize(recs []repeatRecord) steady {
	s := steady{cellMS: map[string][]float64{}}
	last := recs[len(recs)-1]
	s.rounds = last.round + 1
	s.windowSeconds = (last.start + last.dur - recs[0].start).Seconds()
	n := s.rounds * b.w.repeats
	ms, raw := make([]float64, n), make([]float64, n)
	kb, allocs := make([]float64, n), make([]float64, n)
	for _, r := range recs {
		if r.repeat == 0 {
			continue
		}
		i := r.round*b.w.repeats + r.repeat
		d := float64(r.dur) / float64(time.Millisecond)
		ms[i] += d / r.speed
		raw[i] += d
		kb[i] += float64(r.allocBytes) / 1024
		allocs[i] += float64(r.allocs)
		pol := policy(b.cells[r.cell])
		s.cellMS[pol] = append(s.cellMS[pol], d/r.speed)
		s.speeds = append(s.speeds, r.speed)
		s.ops += r.ops
		s.hostSeconds += r.dur.Seconds() / r.speed
	}
	for i := range ms {
		if i%b.w.repeats != 0 {
			s.repeatMS = append(s.repeatMS, ms[i])
			s.rawRepeatMS = append(s.rawRepeatMS, raw[i])
			s.allocKB = append(s.allocKB, kb[i])
			s.allocs = append(s.allocs, allocs[i])
		}
	}
	return s
}

// rebuilt is one steady repeat of every cell rebuilt fresh through the
// public constructors.
type rebuilt struct {
	perCell []outcome
	counts  []map[string]float64 // Runtime.Metrics() per cell
}

// rebuild runs repeat 1 of every cell on a fresh runtime at the seed the
// sweep gave it, checks its outputs, and checks that it reproduces the
// sweep's arena-reusing run of the same repeat exactly.
func (b *bench) rebuild() (rebuilt, error) {
	var out rebuilt
	const r = 1
	for ci, c := range b.cells {
		c = withRepeat(c, b.seed, r)
		runtime.GC() // as in the rounds: free the last build before the next
		rt, err := o2.New(runtimeOptions(c)...)
		if err != nil {
			return out, fmt.Errorf("rebuild %s: %w", policy(c), err)
		}
		run, err := b.w.build(rt, c)
		if err != nil {
			return out, fmt.Errorf("rebuild %s: %w", policy(c), err)
		}
		b.attempted++
		oc, err := run(c)
		if err != nil {
			b.fail("rebuilt %s repeat %d: %v", policy(c), r, err)
		} else if want := b.ref[ci][r]; !containsMetrics(want, oc.metrics) {
			b.fail("rebuilt %s repeat %d: fresh runtime %v differs from the sweep's arena run %v",
				policy(c), r, oc.metrics, want)
		}
		counts := map[string]float64{}
		for _, m := range rt.Metrics() {
			counts[m.Name] = m.Value
		}
		out.perCell = append(out.perCell, oc)
		out.counts = append(out.counts, counts)
	}
	return out, nil
}

// containsMetrics reports whether every metric of sub appears in all with
// the identical value.
func containsMetrics(all, sub o2.Metrics) bool {
	for k, v := range sub {
		if w, ok := all[k]; !ok || v != w {
			return false
		}
	}
	return true
}

package o2

import (
	"errors"
	"io"

	"repro/internal/telemetry"
)

// defaultTelemetryTraceCap is the scheduler-trace capacity WithTelemetry
// implies when the caller chose no WithTrace capacity of their own.
const defaultTelemetryTraceCap = 4096

// defaultTelemetryCap is the sampler ring capacity in samples: how many
// of the most recent sampling windows a timeline can render.
const defaultTelemetryCap = 1024

// ErrTraceDisabled is returned by trace accessors on a runtime built
// without WithTrace (or WithTelemetry, which implies it): the caller
// asked for a trace that was never recorded, which is distinct from a
// recorded trace that happens to be empty.
var ErrTraceDisabled = errors.New("o2: tracing disabled; build the runtime with WithTrace or WithTelemetry")

// ErrTelemetryDisabled is returned by timeline accessors on a runtime
// built without WithTelemetry.
var ErrTelemetryDisabled = errors.New("o2: telemetry disabled; build the runtime with WithTelemetry")

// runtimeTelemetry is the telemetry state hanging off a Runtime: the
// always-on metrics registry plus, under WithTelemetry, the periodic
// sampler and the hooks it reads the rest of the system through.
type runtimeTelemetry struct {
	reg     *telemetry.Registry
	sampler *telemetry.Sampler // nil unless WithTelemetry

	chipOf     []int               // core→socket table, cached once
	queueLen   func(int) int       // per-core run-queue depth
	sched      telemetry.SchedFill // CoreTime placement fill; nil otherwise
	queueDepth func() int          // bounded service-queue depth; nil without a service
}

// initTelemetry builds the registry (always) and the sampler (under
// WithTelemetry) once the machine has materialized. Called at the end of
// ensure, so every hook below captures the final engine/machine/substrate.
func (rt *Runtime) initTelemetry() {
	tel := &rt.tel
	tel.reg = telemetry.NewRegistry()
	tel.chipOf = rt.set.topo.cfg.ChipTable()
	sys := rt.sys
	tel.queueLen = func(i int) int { return sys.Core(i).QueueLen() }
	if ct := rt.ct; ct != nil {
		tel.sched = ct.FillTelemetry
	}
	if rt.set.telInterval > 0 {
		capacity := rt.set.telCap
		if capacity <= 0 {
			capacity = defaultTelemetryCap
		}
		tel.sampler = telemetry.NewSampler(Cycles(rt.set.telInterval), capacity,
			rt.mach.NumCores(), rt.set.topo.Chips())
		rt.startSampler()
	}
	rt.registerMetrics()
}

// startSampler arms the periodic probe on the engine. Like the CoreTime
// monitor, the probe keeps itself alive only while threads are live, so
// a drained engine stays drained (arena reuse requires Pending() == 0).
func (rt *Runtime) startSampler() {
	eng := rt.eng
	eng.Every(Cycles(rt.set.telInterval), func() bool {
		rt.probeTelemetry()
		return eng.Live() > 0
	})
}

// probeTelemetry takes one sample. Everything it touches is read-only
// except FlushIdleAccounting, which idempotently folds in-progress idle
// spans into the counters (the CoreTime monitor does the same), so
// sampling cannot change simulation results — only observe them.
//
//o2:hotpath
func (rt *Runtime) probeTelemetry() {
	rt.sys.FlushIdleAccounting()
	depth := 0
	if rt.tel.queueDepth != nil {
		depth = rt.tel.queueDepth()
	}
	rt.tel.sampler.Probe(rt.eng.Now(), rt.mach.Counters(), rt.tel.chipOf,
		rt.eng.DeadTime(), rt.tel.queueLen, depth, rt.tel.sched)
}

// registerMetrics publishes the built-in gauges: engine, machine, and
// substrate always; scheduler counters under CoreTime; sampler progress
// under WithTelemetry. Service counters join when a service is built.
// Gauges are pull-based — they read live state at Metrics() time and
// cost nothing on the simulation's hot paths.
func (rt *Runtime) registerMetrics() {
	reg := rt.tel.reg
	eng, mach, sys := rt.eng, rt.mach, rt.sys

	reg.Gauge("engine.now_cycles", func() float64 { return float64(eng.Now()) })
	reg.Gauge("engine.events_dispatched", func() float64 { return float64(eng.EventsDispatched()) })
	reg.Gauge("engine.dead_time_cycles", func() float64 { return float64(eng.DeadTime()) })
	reg.Gauge("engine.fast_sleeps", func() float64 { return float64(eng.FastSleeps()) })

	reg.Gauge("machine.loads", func() float64 { return float64(mach.Counters().Total().Loads) })
	reg.Gauge("machine.stores", func() float64 { return float64(mach.Counters().Total().Stores) })
	reg.Gauge("machine.l2_misses", func() float64 { return float64(mach.Counters().Total().L2Miss) })
	reg.Gauge("machine.dram_loads", func() float64 { return float64(mach.Counters().Total().DRAMLoads) })
	reg.Gauge("machine.remote_fetches", func() float64 { return float64(mach.Counters().Total().RemoteFetches) })
	reg.Gauge("machine.dram_queue_cycles", func() float64 { return float64(mach.Counters().Total().DRAMQueueCycles) })
	reg.Gauge("machine.link_queue_cycles", func() float64 { return float64(mach.Counters().Total().LinkQueueCycles) })

	reg.Gauge("exec.run_queue_depth", func() float64 {
		sys.FlushIdleAccounting()
		total := 0
		for i := 0; i < sys.NumCores(); i++ {
			total += sys.Core(i).QueueLen()
		}
		return float64(total)
	})

	if ct := rt.ct; ct != nil {
		reg.Gauge("sched.ops", func() float64 { return float64(ct.Stats().Ops) })
		reg.Gauge("sched.migrations", func() float64 { return float64(ct.Stats().Migrations) })
		reg.Gauge("sched.placements", func() float64 { return float64(ct.Stats().Placements) })
		reg.Gauge("sched.rebalances", func() float64 { return float64(ct.Stats().Rebalances) })
		reg.Gauge("sched.objects_moved", func() float64 { return float64(ct.Stats().ObjectsMoved) })
	}
	if s := rt.tel.sampler; s != nil {
		reg.Gauge("telemetry.samples", func() float64 { return float64(s.TotalSamples()) })
	}
}

// counter returns the named registry counter, materializing the runtime
// first; services wire their per-request counts through this.
func (rt *Runtime) counter(name string) *telemetry.Counter {
	rt.mustEnsure()
	return rt.tel.reg.Counter(name)
}

// Metrics enumerates every registered metric — counters and gauges from
// all subsystems — sorted by name. The registry is always on; without
// WithTelemetry it simply has no sampler series behind it.
func (rt *Runtime) Metrics() []Metric {
	rt.mustEnsure()
	return rt.tel.reg.Snapshot()
}

// WriteMetrics dumps the registry to w as one sorted JSON object.
func (rt *Runtime) WriteMetrics(w io.Writer) error {
	rt.mustEnsure()
	return rt.tel.reg.WriteJSON(w)
}

// WriteTimeline renders the telemetry samples, merged with the recorded
// scheduler trace, as a Chrome trace-event JSON timeline loadable in
// chrome://tracing or Perfetto. Returns ErrTelemetryDisabled unless the
// runtime was built with WithTelemetry. Output is deterministic: a pure
// function of (configuration, seed).
func (rt *Runtime) WriteTimeline(w io.Writer) error {
	if rt.set.telInterval <= 0 {
		return ErrTelemetryDisabled
	}
	rt.mustEnsure()
	return rt.tel.sampler.WriteTrace(w, telemetry.ExportConfig{
		ClockHz: rt.ClockHz(),
		Events:  rt.tracer.Events(),
	})
}

// TelemetrySamples reports how many probes have fired (0 without
// WithTelemetry), for sizing expectations in reports and tests.
func (rt *Runtime) TelemetrySamples() int {
	if rt.tel.sampler == nil {
		return 0
	}
	return int(rt.tel.sampler.TotalSamples())
}

// resetTelemetry rolls telemetry back to its post-build state for arena
// reuse: counters to zero, sampler emptied and re-armed on the freshly
// reset engine. Gauges read live state and need no reset.
func (rt *Runtime) resetTelemetry() {
	rt.tracer.Reset()
	rt.tel.reg.ResetCounters()
	if rt.tel.sampler != nil {
		rt.tel.sampler.Reset()
		rt.startSampler()
	}
}

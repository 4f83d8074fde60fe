package o2

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/trace"
)

// settings is the resolved configuration a Runtime is built from. Options
// mutate it in application order; later options win.
type settings struct {
	topo     Topology
	sched    Scheduler
	seed     uint64
	memBytes int // machine memory image size; 0 = auto
	exec     exec.Options
	ct       core.Options
	traceCap int

	// telInterval > 0 enables the telemetry sampler at that period; see
	// WithTelemetry.
	telInterval Cycles
	telCap      int // sampler ring capacity in samples; 0 = default

	errs []error // accumulated option errors, reported by New
}

func defaultSettings() *settings {
	return &settings{
		topo:  AMD16,
		sched: CoreTime,
		exec:  exec.DefaultOptions(),
		ct:    core.DefaultOptions(),
	}
}

func (s *settings) errorf(format string, args ...any) {
	s.errs = append(s.errs, fmt.Errorf(format, args...))
}

// An Option configures a Runtime under construction. Options are applied
// in order, so later options override earlier ones; invalid values are
// collected and reported together by New.
type Option func(*settings)

// WithTopology selects the simulated machine (default AMD16).
func WithTopology(t Topology) Option {
	return func(s *settings) { s.topo = t }
}

// WithScheduler selects the scheduling policy (default CoreTime).
func WithScheduler(sched Scheduler) Option {
	return func(s *settings) {
		if sched != CoreTime && sched != Baseline && sched != Affinity {
			s.errorf("o2: unknown scheduler %d", sched)
			return
		}
		s.sched = sched
	}
}

// WithSeed sets the runtime's base RNG seed (default 0). Every random
// stream inside the simulation derives deterministically from this seed, so
// equal seeds give bit-identical runs and concurrent runtimes never share
// generator state. Workload drivers whose RunParams.Seed is zero fall back
// to streams derived from it.
func WithSeed(seed uint64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithMemory sets the machine's memory image size in bytes. The default
// sizes the image automatically: 64 MB, grown to fit any workload tree the
// Runtime is asked to build before its machine materializes.
func WithMemory(bytes int) Option {
	return func(s *settings) {
		if bytes <= 0 {
			s.errorf("o2: memory size %d must be positive", bytes)
			return
		}
		s.memBytes = bytes
	}
}

// WithMissThreshold sets the smoothed per-operation cache-miss count above
// which an object is considered expensive to fetch and becomes a placement
// candidate. Lower it for workloads whose operations touch few lines.
func WithMissThreshold(misses float64) Option {
	return func(s *settings) {
		if misses < 0 {
			s.errorf("o2: miss threshold %v must be non-negative", misses)
			return
		}
		s.ct.MissThreshold = misses
	}
}

// WithRebalanceInterval sets the period of the monitor that repairs
// placement pathologies at run time. Zero disables the monitor.
func WithRebalanceInterval(c Cycles) Option {
	return func(s *settings) { s.ct.RebalanceInterval = c }
}

// WithDecayWindow makes CoreTime unplace objects not operated on for the
// given window, releasing cache budget when the working set shrinks. Zero
// disables decay.
func WithDecayWindow(c Cycles) Option {
	return func(s *settings) { s.ct.DecayWindow = c }
}

// WithClustering enables the §6.2 object-clustering extension: objects
// marked with Runtime.PlaceTogether are packed into the same cache.
func WithClustering(on bool) Option {
	return func(s *settings) { s.ct.EnableClustering = on }
}

// WithReplication enables the §6.2 read-only replication extension: hot
// read-only objects get one copy per chip instead of funneling every
// operation to a single core.
func WithReplication(on bool) Option {
	return func(s *settings) { s.ct.EnableReplication = on }
}

// WithReplicationThreshold tunes when an object qualifies for replication:
// after minOps read-only operations, provided at least readRatio (0–1] of
// its operations are read-only.
func WithReplicationThreshold(minOps uint64, readRatio float64) Option {
	return func(s *settings) {
		if readRatio <= 0 || readRatio > 1 {
			s.errorf("o2: replication read ratio %v must be in (0, 1]", readRatio)
			return
		}
		s.ct.ReplicateMinOps = minOps
		s.ct.ReplicateReadRatio = readRatio
	}
}

// WithReplacement selects the over-capacity placement policy (§6.2).
func WithReplacement(r Replacement) Option {
	return func(s *settings) {
		if r != FirstFit && r != Frequency {
			s.errorf("o2: unknown replacement policy %d", r)
			return
		}
		s.ct.Replacement = r.internal()
	}
}

// WithDRAMUnplaceFraction sets the fraction of an object's lines that may
// still load from DRAM before the monitor judges its placement ineffective
// and unplaces it. Zero disables the check.
func WithDRAMUnplaceFraction(frac float64) Option {
	return func(s *settings) {
		if frac < 0 || frac > 1 {
			s.errorf("o2: DRAM unplace fraction %v must be in [0, 1]", frac)
			return
		}
		s.ct.UnplaceDRAMFrac = frac
	}
}

// WithMigrationCost sets the fixed CPU cost charged on each side of a
// thread migration (the §6.1 active-messages ablation lowers it).
func WithMigrationCost(c Cycles) Option {
	return func(s *settings) { s.exec.MigrationCPUCost = c }
}

// WithTrace records the last capacity scheduler decisions (placements,
// migrations, monitor actions) for Runtime.DumpTrace.
func WithTrace(capacity int) Option {
	return func(s *settings) {
		if capacity <= 0 {
			s.errorf("o2: trace capacity %d must be positive", capacity)
			return
		}
		s.traceCap = capacity
	}
}

// WithTelemetry enables the deterministic telemetry sampler: every
// interval simulated cycles the runtime snapshots per-core busy/idle/
// dead-time fractions, per-socket DRAM and interconnect queueing deltas,
// run-queue and service-queue depths, and CoreTime placement counts into
// ring-buffered time series. Runtime.WriteTimeline renders the series —
// merged with the scheduler trace — as a chrome://tracing-loadable
// timeline. Because sampling rides the simulated clock, telemetry output
// is a pure function of (configuration, seed): byte-identical at any
// host worker count, like every other result.
//
// Telemetry implies tracing: when no WithTrace capacity was chosen, a
// default-capacity scheduler trace is enabled so the timeline has
// decision events to merge.
func WithTelemetry(interval Cycles) Option {
	return func(s *settings) {
		if interval <= 0 {
			s.errorf("o2: telemetry interval %d must be positive", interval)
			return
		}
		s.telInterval = interval
		if s.traceCap <= 0 {
			s.traceCap = defaultTelemetryTraceCap
		}
	}
}

// validate folds option errors with topology validation.
func (s *settings) validate() error {
	if err := s.topo.cfg.Validate(); err != nil {
		s.errs = append(s.errs, err)
	}
	switch len(s.errs) {
	case 0:
		return nil
	case 1:
		return s.errs[0]
	default:
		err := s.errs[0]
		for _, e := range s.errs[1:] {
			err = fmt.Errorf("%w; %w", err, e)
		}
		return err
	}
}

// tracer returns the configured tracer, or nil when tracing is off.
func (s *settings) tracer() *trace.Tracer {
	if s.traceCap <= 0 {
		return nil
	}
	return trace.New(s.traceCap)
}

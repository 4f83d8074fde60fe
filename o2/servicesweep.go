package o2

// Sweep integration for the WebService scenario: the ArrivalRate and
// Compaction axes (placement policies reuse PolicyAxis — the KVPolicy
// bundles are scheduler configurations, not KV-specific), the ServiceCell
// runner, and the configured sweep behind `o2bench web`.

import (
	"fmt"
	"io"
	"strconv"
)

// ArrivalRateAxis sweeps the offered arrival rate in requests per second
// of simulated time — the axis that walks a service from underload through
// saturation into overload.
func ArrivalRateAxis(rps ...float64) Axis {
	vals := make([]AxisValue, len(rps))
	for i, r := range rps {
		r := r
		vals[i] = AxisValue{
			Label: fmt.Sprintf("%gk", r/1000),
			Apply: func(c *Cell) { c.Service.RPS = r },
		}
	}
	return Axis{Name: "rps", Values: vals}
}

// CompactionAxis sweeps the background compaction duty cycle (0 disables
// the compaction thread class).
func CompactionAxis(shares ...float64) Axis {
	vals := make([]AxisValue, len(shares))
	for i, s := range shares {
		s := s
		vals[i] = AxisValue{
			Label: strconv.FormatFloat(s, 'g', -1, 64),
			Apply: func(c *Cell) { c.Service.CompactionShare = s },
		}
	}
	return Axis{Name: "compaction", Values: vals}
}

// ServiceCell is the web scenario's sweep runner: build the service on a
// runtime from the cell's options (reusing the cell's arena across
// repeats), offer the cell's open-loop load once. The engine's derived
// cell seed reaches both the runtime and the load generator, so results
// are a pure function of the grid position — the worker-count invariance
// the o2bench web golden test pins.
func ServiceCell(c Cell) (Metrics, error) {
	svc, err := scenarioForCell(&c, func(rt *Runtime) (*WebService, error) {
		return rt.NewWebService(c.Web)
	})
	if err != nil {
		return nil, err
	}
	load := c.Service
	load.Seed = c.Seed
	res, err := svc.Run(load)
	if err != nil {
		return nil, err
	}
	dropRate := 0.0
	if res.Requests > 0 { // a time limit can end the run before any arrival
		dropRate = float64(res.Dropped) / float64(res.Requests)
	}
	return Metrics{
		"offered_krps":  res.OfferedKRPS,
		"achieved_krps": res.AchievedKRPS,
		"drop_rate":     dropRate,
		"p50_cycles":    res.P50,
		"p95_cycles":    res.P95,
		"p99_cycles":    res.P99,
		"p999_cycles":   res.P999,
		"mean_cycles":   res.MeanLatency,
		"migrations":    float64(res.Migrations),
	}, nil
}

// WebConfig drives the `o2bench web` sweep: the cross product of Rates ×
// CompactionShares × Policies on one machine and document tree.
type WebConfig struct {
	Machine Topology
	// Spec shapes the document tree.
	Spec WebSpec
	// Load is the per-cell load template; Rates and CompactionShares
	// sweep its arrival rate and compaction duty cycle.
	Load             ServiceLoad
	Rates            []float64
	CompactionShares []float64
	// Policies are the placement policies to compare (default: all).
	Policies []KVPolicy
	// Repeats measures every cell that many times with distinct derived
	// seeds (default 1); Workers bounds the sweep's worker pool.
	Repeats int
	Workers int
	Seed    uint64
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

// DefaultWebConfig returns the full-scale configuration: the AMD16 machine
// resolving names against a 224-vhost tree (the Fig. 4 regime where the
// working set exceeds one chip but fits the aggregate cache) at arrival
// rates walking toward the thread scheduler's saturation point, with and
// without a half-duty background compactor, across all placement policies.
func DefaultWebConfig() WebConfig {
	return WebConfig{
		Machine:          AMD16,
		Spec:             WebSpec{DocRoots: 224, FilesPerRoot: 1000},
		Load:             DefaultServiceLoad(),
		Rates:            []float64{200_000, 400_000, 800_000},
		CompactionShares: []float64{0, 0.5},
		Policies:         KVPolicies(),
	}
}

// QuickWebConfig returns a reduced sweep for smoke tests: the Tiny8
// machine and a kilobyte-scale tree, same axes.
func QuickWebConfig() WebConfig {
	cfg := DefaultWebConfig()
	cfg.Machine = Tiny8
	cfg.Spec = WebSpec{DocRoots: 24, FilesPerRoot: 128}
	cfg.Load.Requests = 800
	cfg.Rates = []float64{500_000, 1_000_000, 2_000_000}
	return cfg
}

// SoakWebConfig returns the endurance configuration behind `o2bench
// soak`: one million requests per cell against the AMD16 machine,
// baseline vs CoreTime, through WebService's one drive (parked workers,
// one chained arrival event). The point is engine throughput at scale — the
// run must finish in seconds, in constant queue space, with exact
// accounting across a million requests — rather than a new comparison
// axis.
func SoakWebConfig() WebConfig {
	cfg := DefaultWebConfig()
	cfg.Spec = WebSpec{DocRoots: 64, FilesPerRoot: 256}
	cfg.Load.Requests = 1_000_000
	cfg.Rates = []float64{600_000}
	cfg.CompactionShares = []float64{0}
	cfg.Policies = []KVPolicy{KVThreadScheduler, KVCoreTime}
	return cfg
}

// QuickSoakWebConfig returns the CI-scale soak: the Tiny8 machine and
// 50k requests per cell, same drive and axes.
func QuickSoakWebConfig() WebConfig {
	cfg := SoakWebConfig()
	cfg.Machine = Tiny8
	cfg.Spec = WebSpec{DocRoots: 24, FilesPerRoot: 128}
	cfg.Load.Requests = 50_000
	cfg.Rates = []float64{1_000_000}
	return cfg
}

// WebSweep resolves cfg — zero Machine becomes AMD16, zero Spec fields
// take their defaults, empty axes their standard values — and returns it
// with the Sweep that measures it, so the returned cfg describes exactly
// what the cells run. ServiceLoad's zero fields resolve per cell against
// the machine's core count.
func WebSweep(cfg WebConfig) (WebConfig, Sweep) {
	if cfg.Machine.cfg.Chips == 0 {
		cfg.Machine = AMD16
	}
	cfg.Spec = cfg.Spec.WithDefaults()
	if len(cfg.Rates) == 0 {
		cfg.Rates = DefaultWebConfig().Rates
	}
	if len(cfg.CompactionShares) == 0 {
		cfg.CompactionShares = DefaultWebConfig().CompactionShares
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = KVPolicies()
	}
	axes := []Axis{
		ArrivalRateAxis(cfg.Rates...),
		CompactionAxis(cfg.CompactionShares...),
		PolicyAxis(cfg.Policies...),
	}
	return cfg, Sweep{
		Name:     "web",
		Base:     Cell{Machine: cfg.Machine, Web: cfg.Spec, Service: cfg.Load},
		Axes:     axes,
		Repeats:  cfg.Repeats,
		Workers:  cfg.Workers,
		Seed:     cfg.Seed,
		Runner:   ServiceCell,
		Progress: cfg.Progress,
	}
}

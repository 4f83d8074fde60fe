package main

import (
	"fmt"
	"math"

	"repro/o2"
)

// workload is one benchmark workload: a standard public sweep over the
// thread scheduler and CoreTime, and the same cells rebuilt through the
// public constructors so their outputs and work counts can be checked.
type workload struct {
	name string
	// opName names one simulated operation in the report.
	opName string
	// repeats is how many repeats each cell runs per round; the first
	// builds the sweep arena and is a warm-up.
	repeats int
	// setupSamples is how many cold builds of every cell setup_s takes
	// the median of.
	setupSamples int
	// sweep returns the workload's sweep for a seed.
	sweep func(seed uint64, quick bool) o2.Sweep
	// ops checks one repeat's runner metrics and returns the simulated
	// operations the repeat completed.
	ops func(c o2.Cell, m o2.Metrics) (float64, error)
	// build constructs the cell's scenario on rt and returns a function
	// that runs one repeat of it and checks the raw result.
	build func(rt *o2.Runtime, c o2.Cell) (func(o2.Cell) (outcome, error), error)
	// lookupsPerOp and entriesPerLookup size the fatfs work of one
	// operation for the layer split: directory lookups per simulated
	// operation and directory entries one lookup scans on average.
	lookupsPerOp     func(c o2.Cell) float64
	entriesPerLookup float64
	// wideDirectory is set when the machine needs the multi-word
	// coherence directory (more than 64 nodes).
	wideDirectory bool
}

// outcome is one repeat run through the public constructors: the metrics
// the standard runner reports, recomputed from the raw result, and the
// simulated operations completed.
type outcome struct {
	metrics o2.Metrics
	ops     float64
}

var workloads = []*workload{fig4Workload, soakWorkload, scaleWorkload}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have fig4, soak, scale)", name)
}

// fig4Workload is the Figure-4 crossover cell: 224 directories of 1000
// entries (7 MB) on AMD16, more than one chip's cache but within the
// machine's, read by 16 threads with uniform popularity over the quick
// configuration's 8M-cycle warm-up and 3M-cycle window. Shorter warm-ups
// leave the simulated caches unfilled and CoreTime unconverged.
var fig4Workload = &workload{
	name:         "fig4",
	opName:       "resolutions",
	repeats:      8,
	setupSamples: 15,
	sweep: func(seed uint64, quick bool) o2.Sweep {
		cfg := o2.QuickFig4Config()
		cfg.DirCounts = []int{224}
		if quick {
			cfg.DirCounts = []int{16}
			cfg.Params.Warmup, cfg.Params.Measure = 400_000, 200_000
		}
		cfg.Params.Seed = seed
		cfg.Workers = 1
		_, sw := o2.Fig4aSweep(cfg)
		return sw
	},
	ops: func(_ o2.Cell, m o2.Metrics) (float64, error) {
		if m["resolutions"] <= 0 {
			return 0, fmt.Errorf("no resolutions")
		}
		return m["resolutions"], nil
	},
	build: func(rt *o2.Runtime, c o2.Cell) (func(o2.Cell) (outcome, error), error) {
		tree, err := rt.NewDirTree(c.Tree)
		if err != nil {
			return nil, err
		}
		return func(c o2.Cell) (outcome, error) {
			p := c.Params.WithDefaults()
			res := tree.Run(p)
			if res.Resolutions == 0 {
				return outcome{}, fmt.Errorf("no resolutions")
			}
			return outcome{
				metrics: o2.Metrics{
					"kres_per_sec": res.KResPerSec,
					"resolutions":  float64(res.Resolutions),
					"migrations":   float64(res.Migrations),
				},
				ops: float64(res.Resolutions),
			}, nil
		}, nil
	},
	// Every lookup thread resolves one name per operation, during the
	// warm-up as well as the measured window the resolutions count.
	lookupsPerOp: func(c o2.Cell) float64 {
		p := c.Params.WithDefaults()
		return float64(p.Warmup+p.Measure) / float64(p.Measure)
	},
	entriesPerLookup: 500,
}

// soakWorkload is the SoakWebConfig shape cut to a fixed-size drive: a
// direct-handoff WebService on AMD16 serving 64 docroots × 256 files to
// open-loop Poisson arrivals at 600k requests/s with Zipf 0.99 docroot
// popularity. Latency is in simulated cycles from each arrival.
var soakWorkload = &workload{
	name:         "soak",
	opName:       "requests served",
	repeats:      12,
	setupSamples: 31,
	sweep: func(seed uint64, quick bool) o2.Sweep {
		cfg := o2.SoakWebConfig()
		cfg.Load.Requests = 20_000
		if quick {
			cfg.Load.Requests = 2_000
		}
		cfg.Seed = seed
		cfg.Workers = 1
		_, sw := o2.WebSweep(cfg)
		return sw
	},
	ops: func(c o2.Cell, m o2.Metrics) (float64, error) {
		requests := float64(c.Service.WithDefaults(c.Machine.NumCores()).Requests)
		drop := m["drop_rate"]
		if !(drop >= 0 && drop <= 1) || !(m["achieved_krps"] > 0) || !(m["p99_cycles"] > 0) {
			return 0, fmt.Errorf("implausible service metrics: drop_rate %v achieved_krps %v p99 %v",
				drop, m["achieved_krps"], m["p99_cycles"])
		}
		return requests - math.Round(drop*requests), nil
	},
	build: func(rt *o2.Runtime, c o2.Cell) (func(o2.Cell) (outcome, error), error) {
		svc, err := rt.NewWebService(c.Web)
		if err != nil {
			return nil, err
		}
		return func(c o2.Cell) (outcome, error) {
			load := c.Service
			load.Seed = c.Seed
			res, err := svc.Run(load)
			if err != nil {
				return outcome{}, err
			}
			if res.Completed+res.Dropped+res.InFlight != res.Requests || res.InFlight != 0 {
				return outcome{}, fmt.Errorf("requests not conserved: completed %d + dropped %d + in flight %d != offered %d",
					res.Completed, res.Dropped, res.InFlight, res.Requests)
			}
			return outcome{
				metrics: o2.Metrics{
					"offered_krps":  res.OfferedKRPS,
					"achieved_krps": res.AchievedKRPS,
					"drop_rate":     float64(res.Dropped) / float64(res.Requests),
					"p50_cycles":    res.P50,
					"p95_cycles":    res.P95,
					"p99_cycles":    res.P99,
					"p999_cycles":   res.P999,
					"mean_cycles":   res.MeanLatency,
					"migrations":    float64(res.Migrations),
				},
				ops: float64(res.Completed),
			}, nil
		}, nil
	},
	lookupsPerOp:     func(o2.Cell) float64 { return 1 },
	entriesPerLookup: 128,
}

// scaleWorkload is the NUMA256 KVService cell: 4 shards × 128 slots per
// core, two closed-loop clients per core, 55% gets / 40% scans / 5% puts
// with Zipf 0.99 keys. Caches start empty, as in every KV cell.
var scaleWorkload = &workload{
	name:         "scale",
	opName:       "KV ops",
	repeats:      8,
	setupSamples: 21,
	sweep: func(seed uint64, quick bool) o2.Sweep {
		cfg := o2.DefaultScaleConfig()
		cfg.Machines = []o2.Topology{o2.NUMA256}
		cfg.Services = []o2.ScaleService{o2.ScaleKV}
		cfg.Policies = []o2.KVPolicy{o2.KVThreadScheduler, o2.KVCoreTime}
		cfg.ShardsPerCore = 4
		cfg.SlotsPerShard = 128
		cfg.Load.OpsPerClient = scaleOpsPerClient
		if quick {
			cfg.Load.OpsPerClient = 4
		}
		cfg.Seed = seed
		cfg.Workers = 1
		_, sw := o2.ScaleSweep(cfg)
		return sw
	},
	ops: func(c o2.Cell, m o2.Metrics) (float64, error) {
		if !(m["kops_per_sec"] > 0) || !(m["cycles_per_op"] > 0) {
			return 0, fmt.Errorf("implausible KV metrics: kops_per_sec %v cycles_per_op %v",
				m["kops_per_sec"], m["cycles_per_op"])
		}
		load := c.Load.WithDefaults(c.Machine.NumCores())
		return float64(load.Clients * load.OpsPerClient), nil
	},
	build: func(rt *o2.Runtime, c o2.Cell) (func(o2.Cell) (outcome, error), error) {
		svc, err := rt.NewKVService(c.KV)
		if err != nil {
			return nil, err
		}
		return func(c o2.Cell) (outcome, error) {
			load := c.Load
			load.Seed = c.Seed
			res, err := svc.Run(load)
			if err != nil {
				return outcome{}, err
			}
			want := load.WithDefaults(c.Machine.NumCores())
			if res.Clients != want.Clients || res.Ops != uint64(want.Clients*want.OpsPerClient) {
				return outcome{}, fmt.Errorf("ops not conserved: %d ops from %d clients, want %d × %d",
					res.Ops, res.Clients, want.Clients, want.OpsPerClient)
			}
			return outcome{
				metrics: o2.Metrics{
					"kops_per_sec":   res.KOpsPerSec,
					"cycles_per_op":  res.CyclesPerOp,
					"cache_hit_rate": res.CacheHitRate,
					"migrations":     float64(res.Migrations),
					"per_core_kops":  res.KOpsPerSec / float64(c.Machine.NumCores()),
				},
				ops: float64(res.Ops),
			}, nil
		}, nil
	},
	lookupsPerOp:  func(o2.Cell) float64 { return 0 },
	wideDirectory: true,
}

// scaleOpsPerClient sizes one scale repeat so a steady thread-scheduler
// plus CoreTime pair takes about a second of host time.
const scaleOpsPerClient = 40

// expandCells resolves a sweep's grid the way the sweep engine does: the
// cross product of its axes applied to Base, row-major with the last axis
// fastest, so index i here is cell i of the sweep.
func expandCells(sw o2.Sweep) []o2.Cell {
	cells := []o2.Cell{sw.Base}
	for _, ax := range sw.Axes {
		var next []o2.Cell
		for _, c := range cells {
			for _, v := range ax.Values {
				nc := c
				nc.Options = append([]o2.Option(nil), c.Options...)
				nc.Labels = append(append([]string(nil), c.Labels...), v.Label)
				if v.Apply != nil {
					v.Apply(&nc)
				}
				next = append(next, nc)
			}
		}
		cells = next
	}
	for i := range cells {
		cells[i].Index = i
	}
	return cells
}

// withRepeat returns the cell as the sweep engine hands it to the runner
// for repeat r of a sweep seeded with base.
func withRepeat(c o2.Cell, base uint64, r int) o2.Cell {
	c.Repeat = r
	c.Seed = o2.CellSeed(base, c.Index, r)
	c.Params.Seed = c.Seed
	return c
}

// runtimeOptions are the options the standard runners build a cell's
// runtime from: machine and seed, the cell's options, then its scheduler,
// which is authoritative.
func runtimeOptions(c o2.Cell) []o2.Option {
	opts := append([]o2.Option{o2.WithTopology(c.Machine), o2.WithSeed(c.Seed)}, c.Options...)
	return append(opts, o2.WithScheduler(c.Scheduler))
}

// policy names the cell's scheduling policy: its last axis label.
func policy(c o2.Cell) string { return c.Labels[len(c.Labels)-1] }

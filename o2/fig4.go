package o2

// This file and its siblings (fig2.go, micro.go, ablation.go) are the
// evaluation layer: they regenerate every figure and table of the paper,
// plus ablations of the §6 design extensions, entirely through the public
// API above. cmd/o2bench and the repository's bench_test.go are thin
// wrappers around these entry points.
//
// Experiment index (see DESIGN.md):
//
//	Fig4a        — uniform directory popularity sweep (paper Fig. 4a)
//	Fig4b        — oscillating popularity sweep (paper Fig. 4b)
//	Fig2         — cache contents under thread vs O2 scheduling (Fig. 2)
//	LatencyTable — §5 hardware latency numbers
//	MigrationCost— §5 "measured cost of migration is 2000 cycles"
//	Ablations    — clustering, replication, replacement, migration-cost
//	               sensitivity, heterogeneous cores (§6)

import (
	"fmt"
	"io"
)

// Fig4Config drives the Fig. 4 sweeps.
type Fig4Config struct {
	Machine Topology
	// DirCounts are the x-axis points (number of directories, each
	// 1,000 entries × 32 bytes = 31.25 KB, matching the paper).
	DirCounts     []int
	EntriesPerDir int
	Params        RunParams
	// Repeats measures every point that many times with distinct derived
	// seeds and reports mean/stddev (default 1).
	Repeats int
	// Workers bounds the sweep's worker pool; 0 means runtime.NumCPU().
	Workers int
	// Progress, when non-nil, receives one line per completed point.
	Progress io.Writer
}

// DefaultFig4Config returns the full-scale configuration: the AMD16
// machine swept from 125 KB to 21 MB of directory data.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Machine: AMD16,
		DirCounts: []int{
			4, 8, 16, 32, 64, 112, 160, 224, 288, 352, 416, 480, 544, 608, 672,
		},
		EntriesPerDir: 1000,
		Params:        DefaultRunParams(),
	}
}

// QuickFig4Config returns a reduced sweep for smoke tests and testing.B
// benchmarks: fewer points and shorter windows, same machine. The shapes
// hold but absolute numbers sit slightly below the converged full run.
func QuickFig4Config() Fig4Config {
	cfg := DefaultFig4Config()
	cfg.DirCounts = []int{8, 64, 224, 480, 640}
	cfg.Params.Warmup = 8_000_000
	cfg.Params.Measure = 3_000_000
	return cfg
}

// Fig4Row is one x-axis point of Fig. 4: throughput with and without
// CoreTime at a given total data size. With Repeats > 1 the KRes fields
// are means over the repeats and the Stddev fields their sample standard
// deviations (zero for a single repeat).
type Fig4Row struct {
	Dirs       int
	DataKB     float64
	BaseKRes   float64 // thousands of resolutions/sec, thread scheduler
	CTKRes     float64 // thousands of resolutions/sec, CoreTime
	BaseStddev float64
	CTStddev   float64
	Speedup    float64
	Migrations uint64 // mean CoreTime migrations in the measured window
}

// Fig4a regenerates Figure 4(a): uniform directory popularity.
func Fig4a(cfg Fig4Config) ([]Fig4Row, error) {
	cfg, sweep := Fig4aSweep(cfg)
	return fig4(cfg, sweep)
}

// Fig4b regenerates Figure 4(b): the number of directories accessed
// oscillates between the x-axis value and a sixteenth of it. The CoreTime
// monitor cadence is tied to the oscillation period so the rebalancer can
// follow the phase changes (the experiment exists to "demonstrate the
// ability of CoreTime to rebalance objects", §5).
func Fig4b(cfg Fig4Config) ([]Fig4Row, error) {
	cfg, sweep := Fig4bSweep(cfg)
	return fig4(cfg, sweep)
}

// Fig4aSweep resolves cfg for Figure 4(a) and returns it with the Sweep
// that measures it. Callers that want per-cell repeat statistics (cmd/
// o2bench -json) run the sweep themselves; Fig4a folds it into rows.
func Fig4aSweep(cfg Fig4Config) (Fig4Config, Sweep) {
	cfg.Params.Popularity = Uniform
	return cfg, fig4Sweep(cfg)
}

// Fig4bSweep resolves cfg for Figure 4(b) — oscillating popularity with
// the monitor cadence tied to the oscillation period — and returns it with
// the Sweep that measures it.
func Fig4bSweep(cfg Fig4Config) (Fig4Config, Sweep) {
	cfg.Params.Popularity = Oscillating
	if cfg.Params.OscillatePeriod == 0 {
		cfg.Params.OscillatePeriod = 2_000_000
	}
	if cfg.Params.OscillateDivisor == 0 {
		cfg.Params.OscillateDivisor = 16
	}
	return cfg, fig4Sweep(cfg)
}

// fig4Sweep builds the Sweep behind a Fig. 4 run: a dirs × scheduler grid
// over the standard directory-lookup runner. Under oscillating popularity
// the CoreTime monitor runs four times per oscillation period and decays
// objects idle for two periods, so the rebalancer follows the phases.
func fig4Sweep(cfg Fig4Config) Sweep {
	if cfg.EntriesPerDir == 0 {
		cfg.EntriesPerDir = 1000
	}
	name := "fig4a"
	var ctOpts []Option
	if cfg.Params.Popularity == Oscillating {
		name = "fig4b"
		period := cfg.Params.OscillatePeriod
		ctOpts = []Option{WithRebalanceInterval(period / 4), WithDecayWindow(2 * period)}
	}
	return Sweep{
		Name: name,
		Base: Cell{Machine: cfg.Machine, Params: cfg.Params},
		Axes: []Axis{
			DirCountAxis(cfg.EntriesPerDir, cfg.DirCounts...),
			{Name: "scheduler", Values: []AxisValue{
				{Label: Baseline.String(), Apply: func(c *Cell) { c.Scheduler = Baseline }},
				{Label: CoreTime.String(), Apply: func(c *Cell) {
					c.Scheduler = CoreTime
					c.Options = append(c.Options, ctOpts...)
				}},
			}},
		},
		Repeats:  cfg.Repeats,
		Workers:  cfg.Workers,
		Seed:     cfg.Params.Seed,
		Runner:   DirLookupCell,
		Progress: cfg.Progress,
	}
}

// Fig4Rows folds a completed Fig4Sweep result into the figure's rows, one
// per directory count, pairing the baseline and CoreTime cells.
func Fig4Rows(cfg Fig4Config, res *SweepResult) ([]Fig4Row, error) {
	if cfg.EntriesPerDir == 0 {
		cfg.EntriesPerDir = 1000
	}
	rows := make([]Fig4Row, 0, len(cfg.DirCounts))
	for _, dirs := range cfg.DirCounts {
		label := fmt.Sprintf("%d", dirs)
		base := res.Cell(label, Baseline.String())
		ct := res.Cell(label, CoreTime.String())
		if base == nil || ct == nil {
			return nil, fmt.Errorf("o2: sweep result missing cells at %d dirs", dirs)
		}
		spec := DirSpec{Dirs: dirs, EntriesPerDir: cfg.EntriesPerDir}
		row := Fig4Row{
			Dirs:       dirs,
			DataKB:     float64(spec.TotalBytes()) / 1024,
			BaseKRes:   base.Mean("kres_per_sec"),
			CTKRes:     ct.Mean("kres_per_sec"),
			BaseStddev: base.Stddev("kres_per_sec"),
			CTStddev:   ct.Stddev("kres_per_sec"),
			Migrations: uint64(ct.Mean("migrations")),
		}
		if row.BaseKRes > 0 {
			row.Speedup = row.CTKRes / row.BaseKRes
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func fig4(cfg Fig4Config, sweep Sweep) ([]Fig4Row, error) {
	res, err := sweep.Run()
	if err != nil {
		return nil, err
	}
	return Fig4Rows(cfg, res)
}

// WriteFig4Table prints rows in the paper's axes (total data size in KB vs
// thousands of resolutions per second). Rows carrying repeat statistics
// print as mean±stddev.
func WriteFig4Table(w io.Writer, title string, rows []Fig4Row) {
	withStats := false
	for _, r := range rows {
		if r.BaseStddev != 0 || r.CTStddev != 0 {
			withStats = true
			break
		}
	}
	fmt.Fprintf(w, "# %s\n", title)
	if withStats {
		fmt.Fprintf(w, "%10s %8s %20s %20s %9s %12s\n",
			"data(KB)", "dirs", "without-CT", "with-CT", "speedup", "migrations")
		for _, r := range rows {
			fmt.Fprintf(w, "%10.0f %8d %13.0f ±%5.0f %13.0f ±%5.0f %8.2fx %12d\n",
				r.DataKB, r.Dirs, r.BaseKRes, r.BaseStddev, r.CTKRes, r.CTStddev,
				r.Speedup, r.Migrations)
		}
		return
	}
	fmt.Fprintf(w, "%10s %8s %14s %14s %9s %12s\n",
		"data(KB)", "dirs", "without-CT", "with-CT", "speedup", "migrations")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.0f %8d %14.0f %14.0f %8.2fx %12d\n",
			r.DataKB, r.Dirs, r.BaseKRes, r.CTKRes, r.Speedup, r.Migrations)
	}
}

// WriteFig4CSV emits the same series in CSV, ready for gnuplot/matplotlib
// against the paper's axes.
func WriteFig4CSV(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "data_kb,dirs,kres_without_ct,kres_with_ct,stddev_without_ct,stddev_with_ct,speedup,migrations")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f,%d,%.1f,%.1f,%.1f,%.1f,%.4f,%d\n",
			r.DataKB, r.Dirs, r.BaseKRes, r.CTKRes, r.BaseStddev, r.CTStddev, r.Speedup, r.Migrations)
	}
}

// cyclesToString formats a cycle count for tables.
func cyclesToString(c Cycles) string { return fmt.Sprintf("%d", c) }

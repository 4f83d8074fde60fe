package main

// The sweep subcommands, one row of scenarios each. scenario.run gives
// every row the same flags, runs its o2.Sweep, and prints the result as an
// aligned table, CSV (-csv), or the sweep's JSON (-json).

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/o2"
)

// A scenario is one sweep subcommand: its name, usage line, -quick help
// text, and the function that builds its full or (quick) reduced sweep.
type scenario struct {
	name, summary, quick string
	build                func(quick bool) plan
}

// A plan is a sweep ready to run, with its table title and renderer,
// which prints the finished sweep as CSV or as a table under title.
type plan struct {
	title  string
	sweep  o2.Sweep
	render func(w io.Writer, title string, res *o2.SweepResult, csv bool) error
}

// scenarios is the sweep subcommand table, in usage and `o2bench all`
// order. A new sweep is one row here plus one entry in the goldens of
// main_test.go.
var scenarios = []scenario{
	{"fig4a", "Figure 4(a): uniform directory popularity", "reduced sweep (fewer points, shorter windows)",
		configs(o2.DefaultFig4Config, o2.QuickFig4Config, fig4aPlan)},
	{"fig4b", "Figure 4(b): oscillating popularity", "reduced sweep (fewer points, shorter windows)",
		configs(o2.DefaultFig4Config, o2.QuickFig4Config, fig4bPlan)},
	{"kv", "KVService scenario: placement policies on a sharded store", "reduced sweep (Tiny8 machine, kilobyte-scale store)",
		configs(o2.DefaultKVConfig, o2.QuickKVConfig, kvPlan)},
	{"web", "WebService scenario: open-loop latency tails under background compaction", "reduced sweep (Tiny8 machine, kilobyte-scale document tree)",
		configs(o2.DefaultWebConfig, o2.QuickWebConfig, webPlan)},
	{"soak", "engine endurance: one million direct-handoff requests per cell", "reduced soak (Tiny8 machine, 50k requests per cell)",
		configs(o2.SoakWebConfig, o2.QuickSoakWebConfig, soakPlan)},
	{"scale", "big-machine sweep: 16-256 cores x service x policy, saturating NUMA bandwidth", "reduced sweep (16- and 64-core machines, shorter windows)",
		configs(o2.DefaultScaleConfig, o2.QuickScaleConfig, scalePlan)},
}

// configs adapts a plan function over one config type to scenario.build.
func configs[C any](full, quick func() C, planFor func(C) plan) func(bool) plan {
	return func(q bool) plan {
		if q {
			return planFor(quick())
		}
		return planFor(full())
	}
}

func fig4aPlan(cfg o2.Fig4Config) plan {
	cfg, sw := o2.Fig4aSweep(cfg)
	return plan{"Figure 4(a): file system results, uniform directory popularity", sw, fig4Render(cfg)}
}

func fig4bPlan(cfg o2.Fig4Config) plan {
	cfg, sw := o2.Fig4bSweep(cfg)
	return plan{"Figure 4(b): file system results, oscillated directory popularity", sw, fig4Render(cfg)}
}

// fig4Render prints the figure's rows, each pairing the baseline and the
// CoreTime cell of one directory count.
func fig4Render(cfg o2.Fig4Config) func(io.Writer, string, *o2.SweepResult, bool) error {
	return func(w io.Writer, title string, res *o2.SweepResult, csv bool) error {
		rows, err := o2.Fig4Rows(cfg, res)
		if err != nil {
			return err
		}
		if csv {
			o2.WriteFig4CSV(w, rows)
		} else {
			o2.WriteFig4Table(w, title, rows)
		}
		return nil
	}
}

func kvPlan(cfg o2.KVConfig) plan {
	cfg, sw := o2.KVSweep(cfg)
	return plan{fmt.Sprintf("KVService: sharded key-value store on %s (%d shards × %d KB, %d keys)",
		cfg.Machine.Name(), cfg.Spec.Shards, cfg.Spec.ShardBytes()/1024, cfg.Spec.Keys), sw, kvColumns.render}
}

func webPlan(cfg o2.WebConfig) plan {
	cfg, sw := o2.WebSweep(cfg)
	return plan{fmt.Sprintf("WebService: open-loop name resolution on %s (%d vhosts × %d files, %d KB of metadata)",
		cfg.Machine.Name(), cfg.Spec.DocRoots, cfg.Spec.FilesPerRoot, cfg.Spec.MetadataBytes()/1024), sw, webColumns.render}
}

func soakPlan(cfg o2.WebConfig) plan {
	cfg, sw := o2.WebSweep(cfg)
	sw.Name = "soak"
	return plan{fmt.Sprintf("Soak: %d direct-handoff requests per cell on %s (%d vhosts × %d files)",
		cfg.Load.Requests, cfg.Machine.Name(), cfg.Spec.DocRoots, cfg.Spec.FilesPerRoot), sw, webColumns.render}
}

func scalePlan(cfg o2.ScaleConfig) plan {
	cfg, sw := o2.ScaleSweep(cfg)
	last := cfg.Machines[len(cfg.Machines)-1]
	return plan{fmt.Sprintf("Scale: %d machines up to %s (%d cores), per-core working sets",
		len(cfg.Machines), last.Name(), last.NumCores()), sw, scaleColumns.render}
}

// run parses the subcommand's flags, runs its sweep, and writes the
// result to w.
func (s scenario) run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet(s.name, flag.ContinueOnError)
	quick := fs.Bool("quick", false, s.quick)
	seed := fs.Uint64("seed", 1, "base RNG seed")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	jsonOut := fs.Bool("json", false, "emit machine-readable per-cell sweep results")
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = all host CPUs)")
	repeats := fs.Int("repeats", 1, "measurements per grid cell (mean/stddev reported)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *jsonOut && *csv {
		return usageError{fmt.Errorf("-json and -csv are mutually exclusive")}
	}
	p := s.build(*quick)
	p.sweep.Seed, p.sweep.Workers, p.sweep.Repeats, p.sweep.Progress = *seed, *workers, *repeats, os.Stderr
	res, err := p.sweep.Run()
	if err != nil {
		return err
	}
	if *jsonOut {
		return res.WriteJSON(w)
	}
	return p.render(w, p.title, res, *csv)
}

// A cellTable prints a sweep one line per cell: the cell's axis labels,
// then its table or csv columns.
type cellTable struct {
	labelWidth int // table width of each axis label
	table, csv []column
}

// A column is one metric field of a per-cell line.
type column struct {
	head   string
	metric string // empty means head
	orElse string // metric of the cells that do not report metric
	prec   int
	scale  float64 // multiplies the value unless zero
	width  int     // table field width
	// statWidth, when nonzero, is the table field width of "mean ±stddev",
	// printed instead of the mean alone when the sweep has repeats.
	statWidth int
	stddev    bool // CSV: print the stddev instead of the mean
}

// value returns the column's mean and stddev for cell c.
func (col column) value(c *o2.CellResult) (mean, stddev float64) {
	m := col.metric
	if m == "" {
		m = col.head
	}
	if _, ok := c.Stats[m]; !ok && col.orElse != "" {
		m = col.orElse
	}
	if col.scale != 0 {
		return c.Mean(m) * col.scale, c.Stddev(m) * col.scale
	}
	return c.Mean(m), c.Stddev(m)
}

func (t cellTable) render(w io.Writer, title string, res *o2.SweepResult, csv bool) error {
	if csv {
		writeCSV(w, res, t.csv)
	} else {
		writeTable(w, title, res, t.labelWidth, t.table)
	}
	return nil
}

// writeTable prints res as an aligned table, one line per cell.
func writeTable(w io.Writer, title string, res *o2.SweepResult, labelWidth int, cols []column) {
	withStats := res.Repeats > 1
	line := func(labels, fields []string) {
		for _, l := range labels {
			fmt.Fprintf(w, "%-*s ", labelWidth, l)
		}
		fmt.Fprintln(w, strings.Join(fields, " "))
	}
	fields := make([]string, len(cols))
	for j, col := range cols {
		width := col.width
		if withStats && col.statWidth != 0 {
			width = col.statWidth
		}
		fields[j] = fmt.Sprintf("%*s", width, col.head)
	}
	fmt.Fprintf(w, "# %s\n", title)
	line(res.Axes, fields)
	for i := range res.Cells {
		for j, col := range cols {
			mean, stddev := col.value(&res.Cells[i])
			if withStats && col.statWidth != 0 {
				// The mean leaves room for " ±" and a 5-wide stddev.
				fields[j] = fmt.Sprintf("%*.*f ±%5.0f", col.statWidth-7, col.prec, mean, stddev)
			} else {
				fields[j] = fmt.Sprintf("%*.*f", col.width, col.prec, mean)
			}
		}
		line(res.Cells[i].Labels, fields)
	}
}

// writeCSV prints res as CSV, one line per cell.
func writeCSV(w io.Writer, res *o2.SweepResult, cols []column) {
	fields := make([]string, len(cols))
	for j, col := range cols {
		fields[j] = col.head
	}
	fmt.Fprintf(w, "%s,%s\n", strings.Join(res.Axes, ","), strings.Join(fields, ","))
	for i := range res.Cells {
		for j, col := range cols {
			mean, stddev := col.value(&res.Cells[i])
			if col.stddev {
				mean = stddev
			}
			fields[j] = fmt.Sprintf("%.*f", col.prec, mean)
		}
		fmt.Fprintf(w, "%s,%s\n", strings.Join(res.Cells[i].Labels, ","), strings.Join(fields, ","))
	}
}

var kvColumns = cellTable{
	labelWidth: 16,
	table: []column{
		{head: "kops/sec", metric: "kops_per_sec", width: 12, statWidth: 20},
		{head: "cycles/op", metric: "cycles_per_op", width: 12},
		{head: "hit%", metric: "cache_hit_rate", width: 8, prec: 1, scale: 100},
		{head: "migrations", width: 11},
	},
	csv: []column{
		{head: "kops_per_sec", prec: 1}, {head: "kops_stddev", metric: "kops_per_sec", prec: 1, stddev: true},
		{head: "cycles_per_op", prec: 1}, {head: "cache_hit_rate", prec: 4}, {head: "migrations"},
	},
}

// webColumns serve web and soak: one service, driven two ways.
var webColumns = cellTable{
	labelWidth: 16,
	table: []column{
		{head: "off krps", metric: "offered_krps", width: 10},
		{head: "ach krps", metric: "achieved_krps", width: 10},
		{head: "drop%", metric: "drop_rate", width: 6, prec: 1, scale: 100},
		{head: "p50", metric: "p50_cycles", width: 10},
		{head: "p95", metric: "p95_cycles", width: 10},
		{head: "p99 (cycles)", metric: "p99_cycles", width: 12, statWidth: 18},
		{head: "p999", metric: "p999_cycles", width: 12},
	},
	csv: []column{
		{head: "offered_krps", prec: 1}, {head: "achieved_krps", prec: 1}, {head: "drop_rate", prec: 4},
		{head: "p50_cycles"}, {head: "p95_cycles"}, {head: "p99_cycles"},
		{head: "p99_stddev", metric: "p99_cycles", prec: 1, stddev: true},
		{head: "p999_cycles"}, {head: "mean_cycles"}, {head: "migrations"},
	},
}

// scaleColumns print each cell's own throughput: kops_per_sec for KV
// cells, kres_per_sec for dirlookup cells, both in thousands per second.
var scaleColumns = cellTable{
	labelWidth: 12,
	table: []column{
		{head: "kops/sec", metric: "kops_per_sec", orElse: "kres_per_sec", width: 12, statWidth: 20},
		{head: "kops/sec/core", metric: "per_core_kops", width: 14, prec: 1},
		{head: "migrations", width: 11},
	},
	csv: []column{
		{head: "kops_per_sec", orElse: "kres_per_sec", prec: 1},
		{head: "kops_stddev", metric: "kops_per_sec", orElse: "kres_per_sec", prec: 1, stddev: true},
		{head: "per_core_kops", prec: 2}, {head: "migrations"},
	},
}

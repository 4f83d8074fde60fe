package o2

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"repro/internal/stats"
)

// Sweep is the Experiment layer's parameter-sweep engine: a declarative
// grid of configurations (the cross product of Axes applied to Base),
// executed by a bounded worker pool. Each grid cell runs Repeats times
// with a deterministic per-cell seed (see CellSeed), and the repeats are
// aggregated into mean/stddev/min/max summaries per metric. A cell's
// repeats run sequentially on one worker sharing a cellArena, so
// arena-aware runners reuse the built runtime across repeats instead of
// reallocating it. Results are independent of the worker count: the same
// Sweep with the same Seed produces byte-identical output at Workers=1
// and Workers=N.
//
// A Figure-4-style comparison over tree sizes and schedulers:
//
//	sw := o2.Sweep{
//		Base:    o2.Cell{Machine: o2.AMD16, Params: o2.DefaultRunParams()},
//		Axes:    []o2.Axis{o2.DirCountAxis(1000, 64, 224, 640), o2.SchedulerAxis(o2.Baseline, o2.CoreTime)},
//		Repeats: 3,
//		Runner:  o2.DirLookupCell,
//	}
//	res, err := sw.WithWorkers(8).Run()
type Sweep struct {
	// Name labels the sweep in reports and JSON output.
	Name string
	// Base is the configuration template every cell starts from; axis
	// values edit copies of it. Its Index/Coords/Labels/Repeat/Seed
	// fields are overwritten by the engine.
	Base Cell
	// Axes span the grid. With no axes the sweep has exactly one cell:
	// Base itself. Cells are enumerated row-major, last axis fastest.
	Axes []Axis
	// Repeats is how many times each cell is measured, each repeat on a
	// fresh runtime with its own derived seed; values < 1 mean 1.
	Repeats int
	// Workers bounds the worker pool; 0 means runtime.NumCPU(). Use
	// WithWorkers for call-site chaining.
	Workers int
	// Seed is the base seed every per-cell seed derives from.
	Seed uint64
	// Runner measures one repeat of one cell. DirLookupCell is the
	// standard directory-lookup runner; figures install their own.
	Runner func(Cell) (Metrics, error)
	// Progress, when non-nil, receives one line per completed cell.
	// Lines appear in completion order, so they may be out of grid order
	// when Workers > 1.
	Progress io.Writer
}

// WithWorkers returns a copy of the sweep with the worker bound set.
func (s Sweep) WithWorkers(n int) Sweep { s.Workers = n; return s }

// WithRepeats returns a copy of the sweep with the repeat count set.
func (s Sweep) WithRepeats(n int) Sweep { s.Repeats = n; return s }

// WithSeed returns a copy of the sweep with the base seed set.
func (s Sweep) WithSeed(seed uint64) Sweep { s.Seed = seed; return s }

// Axis is one dimension of a sweep grid: an ordered set of values, each of
// which edits the cell under construction. Helpers build the common axes
// (TopologyAxis, SchedulerAxis, DirCountAxis, TreeAxis, OptionsAxis);
// custom axes are Axis literals with arbitrary Apply functions.
type Axis struct {
	Name   string
	Values []AxisValue
}

// AxisValue is one point on an axis.
type AxisValue struct {
	// Label identifies the value in results and progress lines.
	Label string
	// Apply edits the cell to select this value.
	Apply func(*Cell)
}

// TopologyAxis sweeps over simulated machines.
func TopologyAxis(tops ...Topology) Axis {
	vals := make([]AxisValue, len(tops))
	for i, t := range tops {
		t := t
		vals[i] = AxisValue{Label: t.Name(), Apply: func(c *Cell) { c.Machine = t }}
	}
	return Axis{Name: "machine", Values: vals}
}

// SchedulerAxis sweeps over scheduling policies.
func SchedulerAxis(scheds ...Scheduler) Axis {
	vals := make([]AxisValue, len(scheds))
	for i, sc := range scheds {
		sc := sc
		vals[i] = AxisValue{Label: sc.String(), Apply: func(c *Cell) { c.Scheduler = sc }}
	}
	return Axis{Name: "scheduler", Values: vals}
}

// DirCountAxis sweeps the directory tree's size: one value per directory
// count, each entriesPerDir entries — the x-axis of Figure 4.
func DirCountAxis(entriesPerDir int, counts ...int) Axis {
	vals := make([]AxisValue, len(counts))
	for i, n := range counts {
		n := n
		vals[i] = AxisValue{
			Label: fmt.Sprintf("%d", n),
			Apply: func(c *Cell) { c.Tree = DirSpec{Dirs: n, EntriesPerDir: entriesPerDir} },
		}
	}
	return Axis{Name: "dirs", Values: vals}
}

// TreeAxis sweeps over explicit directory-tree shapes.
func TreeAxis(specs ...DirSpec) Axis {
	vals := make([]AxisValue, len(specs))
	for i, spec := range specs {
		spec := spec
		vals[i] = AxisValue{
			Label: fmt.Sprintf("%dx%d", spec.Dirs, spec.EntriesPerDir),
			Apply: func(c *Cell) { c.Tree = spec },
		}
	}
	return Axis{Name: "tree", Values: vals}
}

// OptionSet is one labelled value of an OptionsAxis.
type OptionSet struct {
	Label   string
	Options []Option
}

// OptionsAxis sweeps over arbitrary runtime option sets; each value
// appends its options to the cell (later options win over Base's).
func OptionsAxis(name string, sets ...OptionSet) Axis {
	vals := make([]AxisValue, len(sets))
	for i, set := range sets {
		set := set
		vals[i] = AxisValue{
			Label: set.Label,
			Apply: func(c *Cell) { c.Options = append(c.Options, set.Options...) },
		}
	}
	return Axis{Name: name, Values: vals}
}

// Cell is one fully resolved configuration of a sweep grid: what a Runner
// receives. The engine fills the identity fields (Index, Coords, Labels,
// Repeat, Seed); axes fill the configuration fields from Base.
type Cell struct {
	// Index is the cell's row-major position in the grid.
	Index int
	// Coords are the per-axis value indices selecting this cell.
	Coords []int
	// Labels are the per-axis value labels, parallel to Coords.
	Labels []string
	// Repeat is which repetition this measurement is (0-based).
	Repeat int
	// Seed is the measurement's derived seed, CellSeed(sweep.Seed,
	// Index, Repeat). The engine also installs it as Params.Seed.
	Seed uint64

	// Machine is the simulated topology; the zero value means AMD16.
	Machine Topology
	// Scheduler is the scheduling policy (default CoreTime). It is
	// authoritative: standard runners (DirLookupCell, KVCell) apply it
	// after Options. Axes that select schedulers (SchedulerAxis,
	// PolicyAxis) set this field.
	Scheduler Scheduler
	// Tree sizes the directory-lookup workload for runners that build
	// one (DirLookupCell).
	Tree DirSpec
	// Paths sizes the path-resolution workload for runners that build
	// one.
	Paths PathSpec
	// KV sizes the key-value store for the KV scenario runner (KVCell).
	KV KVSpec
	// Load drives the KV load generator for KVCell; the engine installs
	// the cell seed as its Seed.
	Load KVLoad
	// Web sizes the web service for the open-loop service runner
	// (ServiceCell).
	Web WebSpec
	// Service drives the open-loop load generator for ServiceCell; the
	// engine installs the cell seed as its Seed.
	Service ServiceLoad
	// Params drive the measurement; zero fields are defaulted as in
	// Experiment.Run.
	Params RunParams
	// Options apply to the runtime after WithTopology/WithSeed.
	Options []Option

	// arena carries reusable runtime state between the sequential repeats
	// of one cell (see cellArena). The sweep engine installs it; runners
	// that understand it reuse the built runtime across repeats, and
	// runners that ignore it keep building fresh runtimes. Nil for cells
	// run outside a sweep.
	arena *cellArena
}

// Metrics is one measurement's named values. Standard runners report
// "kres_per_sec", "resolutions", and "migrations"; custom runners may
// report anything.
type Metrics map[string]float64

// DirLookupCell is the standard sweep runner: one directory-lookup run
// of the cell. It builds the runtime and tree from the cell as
// Experiment.Run does from an experiment and resolves the parameters
// through the same code path, so sweep cells and hand-rolled experiments
// cannot drift; inside a sweep the cell's arena lets repeats after the
// first reuse the built runtime and tree.
func DirLookupCell(c Cell) (Metrics, error) {
	params, err := resolveParams(c.Params)
	if err != nil {
		return nil, err
	}
	tree, err := scenarioForCell(&c, func(rt *Runtime) (*DirTree, error) {
		return rt.NewDirTree(c.Tree)
	})
	if err != nil {
		return nil, err
	}
	res := tree.Run(params)
	return Metrics{
		"kres_per_sec": res.KResPerSec,
		"resolutions":  float64(res.Resolutions),
		"migrations":   float64(res.Migrations),
	}, nil
}

// Aggregate summarises one metric across a cell's repeats.
type Aggregate struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// CellResult is one cell's measurements: the raw per-repeat metrics (in
// repeat order) and their aggregates.
type CellResult struct {
	Index  int       `json:"index"`
	Labels []string  `json:"labels"`
	Coords []int     `json:"coords"`
	Seeds  []uint64  `json:"seeds"`
	Runs   []Metrics `json:"runs"`

	// Stats aggregates each metric over the cell's repeats.
	Stats map[string]Aggregate `json:"stats"`
}

// Mean returns the mean of the named metric across repeats (0 when the
// metric was not reported).
func (c *CellResult) Mean(metric string) float64 { return c.Stats[metric].Mean }

// Stddev returns the sample standard deviation of the named metric.
func (c *CellResult) Stddev(metric string) float64 { return c.Stats[metric].Stddev }

// SweepResult is a completed sweep. It deliberately records nothing about
// the execution (worker count, wall-clock): two runs of the same sweep at
// different -workers marshal to identical JSON.
type SweepResult struct {
	Name    string       `json:"name"`
	Axes    []string     `json:"axes"`
	Repeats int          `json:"repeats"`
	Seed    uint64       `json:"seed"`
	Cells   []CellResult `json:"cells"`
}

// Cell returns the result whose labels match the given per-axis labels in
// axis order, or nil when absent.
func (r *SweepResult) Cell(labels ...string) *CellResult {
outer:
	for i := range r.Cells {
		c := &r.Cells[i]
		if len(c.Labels) != len(labels) {
			continue
		}
		for j := range labels {
			if c.Labels[j] != labels[j] {
				continue outer
			}
		}
		return c
	}
	return nil
}

// WriteJSON marshals the result as indented JSON. Metric keys marshal in
// sorted order, so the byte stream is stable — the schema the o2bench
// golden test pins.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MetricNames returns every metric name reported anywhere in the sweep,
// sorted.
func (r *SweepResult) MetricNames() []string {
	seen := map[string]bool{}
	for _, c := range r.Cells {
		for name := range c.Stats {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cells expands the grid row-major (last axis fastest).
func (s Sweep) cells() []Cell {
	total := 1
	for _, a := range s.Axes {
		total *= len(a.Values)
	}
	out := make([]Cell, 0, total)
	coords := make([]int, len(s.Axes))
	for idx := 0; idx < total; idx++ {
		c := s.Base
		c.Index = idx
		c.Coords = append([]int(nil), coords...)
		c.Labels = make([]string, len(s.Axes))
		// Copy with exact capacity so axis Apply appends cannot alias
		// the base slice across cells.
		c.Options = append(make([]Option, 0, len(s.Base.Options)), s.Base.Options...)
		for ai, a := range s.Axes {
			v := a.Values[coords[ai]]
			c.Labels[ai] = v.Label
			if v.Apply != nil {
				v.Apply(&c)
			}
		}
		out = append(out, c)
		for ai := len(coords) - 1; ai >= 0; ai-- {
			coords[ai]++
			if coords[ai] < len(s.Axes[ai].Values) {
				break
			}
			coords[ai] = 0
		}
	}
	return out
}

// Run executes the sweep and returns the aggregated results. Cells are
// distributed over the worker pool and each cell's repeats run
// sequentially on its worker; every measurement is seeded with CellSeed
// and no state — RNG, caches, machine counters — is shared between
// concurrent measurements (repeats of one cell share an arena, but only
// after the previous repeat has fully drained). The first error (in grid
// order, independent of scheduling) aborts the result.
func (s Sweep) Run() (*SweepResult, error) {
	if s.Runner == nil {
		return nil, fmt.Errorf("o2: Sweep %q has no Runner", s.Name)
	}
	for _, a := range s.Axes {
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("o2: Sweep %q axis %q has no values", s.Name, a.Name)
		}
	}
	repeats := s.Repeats
	if repeats < 1 {
		repeats = 1
	}
	cells := s.cells()
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	jobs := make(chan int)
	runs := make([][]Metrics, len(cells))
	seeds := make([][]uint64, len(cells))
	errs := make([][]error, len(cells))
	remaining := make([]int, len(cells))
	for i := range cells {
		runs[i] = make([]Metrics, repeats)
		seeds[i] = make([]uint64, repeats)
		errs[i] = make([]error, repeats)
		remaining[i] = repeats
	}

	var mu sync.Mutex // guards remaining and Progress
	cellDone := func(ci int) {
		mu.Lock()
		defer mu.Unlock()
		remaining[ci]--
		if remaining[ci] != 0 || s.Progress == nil {
			return
		}
		line := fmt.Sprintf("cell %d/%d", ci+1, len(cells))
		for ai, a := range s.Axes {
			line += fmt.Sprintf("  %s=%s", a.Name, cells[ci].Labels[ai])
		}
		if m := runs[ci][0]; m != nil {
			if v, ok := m["kres_per_sec"]; ok {
				line += fmt.Sprintf("  kres/s %.0f", v)
			}
		}
		fmt.Fprintln(s.Progress, line)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range jobs {
				// A cell's repeats run sequentially on one worker so they
				// can share an arena: the first repeat builds the runtime
				// and scenario, later repeats reset and reuse them.
				// Determinism is unaffected — each repeat's behavior is a
				// pure function of its CellSeed either way.
				arena := &cellArena{}
				for r := 0; r < repeats; r++ {
					c := cells[ci]
					c.Repeat = r
					c.Seed = CellSeed(s.Seed, c.Index, r)
					c.Params.Seed = c.Seed
					c.arena = arena
					m, err := s.Runner(c)
					runs[ci][r] = m
					seeds[ci][r] = c.Seed
					errs[ci][r] = err
					if err != nil {
						// A failed repeat may leave the arena half-built;
						// give the next repeat a clean slate.
						arena = &cellArena{}
					}
					cellDone(ci)
				}
			}
		}()
	}
	for ci := range cells {
		jobs <- ci
	}
	close(jobs)
	wg.Wait()

	// Report the first failure in grid order, not completion order, so
	// the error a caller sees does not depend on the worker count.
	for ci := range cells {
		for r := 0; r < repeats; r++ {
			if err := errs[ci][r]; err != nil {
				return nil, fmt.Errorf("o2: sweep %q cell %d %v repeat %d: %w",
					s.Name, ci, cells[ci].Labels, r, err)
			}
		}
	}

	res := &SweepResult{
		Name:    s.Name,
		Axes:    make([]string, len(s.Axes)),
		Repeats: repeats,
		Seed:    s.Seed,
	}
	for i, a := range s.Axes {
		res.Axes[i] = a.Name
	}
	for ci, c := range cells {
		cr := CellResult{
			Index:  c.Index,
			Labels: c.Labels,
			Coords: c.Coords,
			Seeds:  seeds[ci],
			Runs:   runs[ci],
			Stats:  map[string]Aggregate{},
		}
		// Aggregate in repeat order — not completion order — so the
		// floating-point accumulation is identical at any worker count.
		byMetric := map[string][]float64{}
		for _, m := range runs[ci] {
			for name, v := range m {
				byMetric[name] = append(byMetric[name], v)
			}
		}
		for name, xs := range byMetric {
			sum := stats.Summarize(xs)
			cr.Stats[name] = Aggregate{
				N:      int(sum.N()),
				Mean:   sum.Mean(),
				Stddev: sum.Stddev(),
				Min:    sum.Min(),
				Max:    sum.Max(),
			}
		}
		res.Cells = append(res.Cells, cr)
	}
	return res, nil
}

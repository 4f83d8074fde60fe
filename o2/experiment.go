package o2

import "fmt"

// Experiment measures the directory-lookup workload on a fresh runtime per
// run, so scheduler configurations compare on identical machines and
// trees. A full Figure-4-style comparison is a few lines:
//
//	exp := o2.Experiment{
//		Machine: o2.AMD16,
//		Tree:    o2.DirSpec{Dirs: 64, EntriesPerDir: 1000},
//		Params:  o2.DefaultRunParams(),
//	}
//	base, ct, err := exp.Compare()
//	fmt.Printf("speedup %.2fx\n", ct.KResPerSec/base.KResPerSec)
type Experiment struct {
	// Machine is the simulated topology; the zero value means AMD16.
	Machine Topology
	// Tree sizes the directory tree.
	Tree DirSpec
	// Params drive the measurement; the zero value means
	// DefaultRunParams().
	Params RunParams
	// Options apply to every runtime the experiment builds, after
	// WithTopology(Machine) and before any per-run options.
	Options []Option
}

// Run builds a fresh runtime from the experiment's options plus opts
// (later options win), builds the tree, and measures one run. The zero
// Topology means AMD16 and zero RunParams fields are filled from
// DefaultRunParams field by field, as DirLookupCell does for sweep cells.
func (e Experiment) Run(opts ...Option) (Result, error) {
	params, err := resolveParams(e.Params)
	if err != nil {
		return Result{}, err
	}
	machine := e.Machine
	if machine.cfg.Chips == 0 { // zero value: default to the paper's machine
		machine = AMD16
	}
	all := append([]Option{WithTopology(machine)}, e.Options...)
	all = append(all, opts...)
	rt, err := New(all...)
	if err != nil {
		return Result{}, err
	}
	tree, err := rt.NewDirTree(e.Tree)
	if err != nil {
		return Result{}, err
	}
	return tree.Run(params), nil
}

// resolveParams fills p's zero fields from DefaultRunParams
// (RunParams.WithDefaults) and rejects a non-positive thread count.
// Experiment.Run and DirLookupCell share it, so the same cell measured
// either way gets identical parameters.
func resolveParams(p RunParams) (RunParams, error) {
	p = p.WithDefaults()
	if p.Threads <= 0 {
		return RunParams{}, fmt.Errorf("o2: Experiment.Params.Threads must be positive, got %d", p.Threads)
	}
	return p, nil
}

// Compare measures the experiment under the Baseline thread scheduler and
// under CoreTime (each on a fresh machine) and returns both results.
func (e Experiment) Compare() (base, coretime Result, err error) {
	if base, err = e.Run(WithScheduler(Baseline)); err != nil {
		return
	}
	coretime, err = e.Run(WithScheduler(CoreTime))
	return
}

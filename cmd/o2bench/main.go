// Command o2bench regenerates the figures and tables of "Reinventing
// Scheduling for Multicore Systems" (HotOS 2009) on the simulated AMD16
// machine, plus the ablations of the design extensions from §6. It is a
// thin wrapper over the public repro/o2 package.
//
// Usage:
//
//	o2bench [-cpuprofile F] [-memprofile F] COMMAND [flags]
//
//	o2bench SWEEP [-quick] [-seed N] [-workers N] [-repeats N] [-json|-csv]
//	                                    the sweeps fig4a and fig4b (Figure 4),
//	                                    kv, web, soak and scale; see help
//	o2bench fig2 [-dirs N] [-entries N] [-threads N] [-seed N]
//	                                    Figure 2: cache contents maps
//	o2bench trace [-quick] [-seed N] [-interval C] [-out FILE]
//	                                    telemetry timeline of one open-loop
//	                                    cell as Chrome trace-event JSON
//	o2bench latency                     §5 latency table
//	o2bench migration [-trials N]       §5 migration cost (≈2000 cycles)
//	o2bench ablation -exp=NAME          clustering|replication|replacement|
//	                                    migcost|hetero|paths|single|all
//	o2bench all [-quick]                latency, migration, fig2, every sweep
//	                                    but soak, and the ablations
//
// All six sweeps run on the o2.Sweep engine: -workers bounds the worker
// pool (default: all host CPUs), -repeats measures every grid cell that
// many times with distinct derived seeds and reports mean±stddev, -csv
// prints the table as CSV, and -json the machine-readable per-cell sweep
// results pinned by the golden tests in this package.
//
// The global -cpuprofile and -memprofile flags (before the command) write
// pprof profiles covering the whole run; see DESIGN.md, "Profiling the
// simulator".
//
// All other output goes to stdout as aligned text tables; simulation
// progress is reported on stderr. The exit status is 0 on success and
// for -h, 2 for a usage error, and 1 for any other failure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/o2"
)

func main() {
	global := flag.NewFlagSet("o2bench", flag.ExitOnError)
	global.Usage = usage
	cpuprofile := global.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := global.String("memprofile", "", "write a heap profile to this file on exit")
	// Parse stops at the first non-flag argument: the command.
	if err := global.Parse(os.Args[1:]); err != nil || global.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := global.Arg(0), global.Args()[1:]

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "o2bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "o2bench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
	}

	err := run(cmd, args)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "o2bench: %v\n", ferr)
			os.Exit(1)
		}
		runtime.GC() // materialize the final live heap
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fmt.Fprintf(os.Stderr, "o2bench: writing heap profile: %v\n", werr)
			os.Exit(1)
		}
		f.Close()
	}
	code := exitCode(err)
	if code != 0 {
		fmt.Fprintf(os.Stderr, "o2bench: %v\n", err)
	}
	os.Exit(code)
}

// usageError marks a command-line mistake, for which main exits 2 as the
// flag package does. run returns it rather than exiting, so main still
// closes the profile bracket.
type usageError struct{ error }

// parseFlags parses a subcommand's flags. A parse failure comes back as a
// usageError; -h and -help as flag.ErrHelp.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err}
	}
	return err
}

// exitCode maps run's result to the process exit status.
func exitCode(err error) int {
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		return 2
	}
	return 1
}

// run dispatches one subcommand; profiling brackets it in main.
func run(cmd string, args []string) error {
	for _, s := range scenarios {
		if s.name == cmd {
			return s.run(os.Stdout, args)
		}
	}
	switch cmd {
	case "fig2", "cachemap":
		return runFig2(args)
	case "trace":
		return runTrace(args)
	case "latency":
		return runLatency()
	case "migration":
		return runMigration(args)
	case "ablation":
		return runAblation(args)
	case "all":
		return runAll(args)
	case "help":
		usage()
		return nil
	default:
		usage()
		return usageError{fmt.Errorf("unknown command %q", cmd)}
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `o2bench — reproduce the paper's evaluation

  o2bench [-cpuprofile FILE] [-memprofile FILE] COMMAND [flags]

`)
	for _, s := range scenarios {
		fmt.Fprintf(os.Stderr, "  o2bench %s [-quick] [-seed N] [-workers N] [-repeats N] [-json|-csv]\n%37s%s\n",
			s.name, "", s.summary)
	}
	fmt.Fprint(os.Stderr, `  o2bench fig2 [-dirs N] [-entries N] [-threads N] [-seed N]
                                     Figure 2: cache-contents maps
  o2bench trace [-quick] [-seed N] [-interval C] [-out FILE]
                                     telemetry timeline of one open-loop NUMA256 cell under
                                     CoreTime as Chrome trace-event JSON
  o2bench latency                    hardware latency table (§5)
  o2bench migration [-trials N]      migration cost microbenchmark (§5)
  o2bench ablation -exp=NAME         clustering|replication|replacement|migcost|hetero|paths|single|all
  o2bench all [-quick]               latency, migration, fig2, every sweep but soak, ablations
`)
}

func runFig2(args []string) error {
	cfg := o2.DefaultFig2Config()
	fs := flag.NewFlagSet("fig2", flag.ContinueOnError)
	fs.IntVar(&cfg.Dirs, "dirs", cfg.Dirs, "number of directories")
	fs.IntVar(&cfg.EntriesPerDir, "entries", cfg.EntriesPerDir, "entries per directory (32 bytes each)")
	fs.IntVar(&cfg.Threads, "threads", cfg.Threads, "worker threads")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "workload RNG seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	base, ct, err := o2.Fig2(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Figure 2: cache contents, %d directories × %d entries on %s\n\n",
		cfg.Dirs, cfg.EntriesPerDir, cfg.Machine.Name())
	o2.WriteCacheMap(os.Stdout, cfg.Machine, base)
	fmt.Println()
	o2.WriteCacheMap(os.Stdout, cfg.Machine, ct)
	return nil
}

func runLatency() error {
	rows, err := o2.LatencyTable()
	if err != nil {
		return err
	}
	o2.WriteLatencyTable(os.Stdout, rows)
	return nil
}

func runMigration(args []string) error {
	fs := flag.NewFlagSet("migration", flag.ContinueOnError)
	trials := fs.Int("trials", 128, "migration round trips to average")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	r, err := o2.MigrationCost(*trials)
	if err != nil {
		return err
	}
	o2.WriteMigrationResult(os.Stdout, r)
	return nil
}

func runAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ContinueOnError)
	exp := fs.String("exp", "all", "clustering|replication|replacement|migcost|hetero|paths|single|all")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ran := false
	for _, a := range o2.Ablations() {
		if *exp != "all" && *exp != a.Name {
			continue
		}
		rows, err := a.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		o2.WriteAblation(os.Stdout, a.Title, rows)
		fmt.Println()
		ran = true
	}
	if !ran {
		return usageError{fmt.Errorf("unknown ablation %q", *exp)}
	}
	return nil
}

func runAll(args []string) error {
	if err := runLatency(); err != nil {
		return err
	}
	fmt.Println()
	if err := runMigration(nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runFig2(nil); err != nil {
		return err
	}
	fmt.Println()
	for _, s := range scenarios {
		if s.name == "soak" {
			continue // an engine endurance run, not a result of the paper
		}
		if err := s.run(os.Stdout, args); err != nil {
			return err
		}
		fmt.Println()
	}
	return runAblation([]string{"-exp=all"})
}

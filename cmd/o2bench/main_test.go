package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/o2"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// A golden is one scenario's reduced, fully deterministic sweep and the
// stem of its files in testdata/: STEM.json holds the -json output at the
// configuration's two repeats, STEM_rN.txt and STEM_rN.csv the table and
// CSV output at N repeats.
type golden struct {
	stem string
	plan func() plan
}

// goldens has one entry per row of scenarios. The configurations pin
// output schemas and determinism contracts, not the paper's numbers.
var goldens = map[string]golden{
	"fig4a": {"fig4_tiny", func() plan { return fig4aPlan(goldenFig4Config()) }},
	"fig4b": {"fig4b_tiny", func() plan { return fig4bPlan(goldenFig4Config()) }},
	"kv":    {"kv_tiny", func() plan { return kvPlan(goldenKVConfig()) }},
	"web":   {"web_tiny", func() plan { return webPlan(goldenWebConfig()) }},
	"soak":  {"soak_tiny", func() plan { return soakPlan(goldenSoakConfig()) }},
	"scale": {"scale_tiny", func() plan { return scalePlan(goldenScaleConfig()) }},
}

// forEachScenario runs f as a subtest per row of scenarios, failing rows
// that have no golden.
func forEachScenario(t *testing.T, f func(t *testing.T, g golden)) {
	for _, s := range scenarios {
		t.Run(s.name, func(t *testing.T) {
			g, ok := goldens[s.name]
			if !ok {
				t.Fatalf("scenario %q has no golden configuration", s.name)
			}
			f(t, g)
		})
	}
}

// runSweep runs p's sweep, failing the test on error.
func runSweep(t *testing.T, p plan) *o2.SweepResult {
	t.Helper()
	res, err := p.sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// jsonOutput returns what `o2bench NAME -json` prints for p.
func jsonOutput(t *testing.T, p plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := runSweep(t, p).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readGolden returns testdata/name, first rewriting it with got under
// -update.
func readGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	return want
}

// TestJSONGolden pins every sweep's -json output: field names, nesting,
// metric keys, and the simulation's deterministic values. If the output
// changes intentionally, regenerate with `go test ./cmd/o2bench -run
// TestJSONGolden/NAME -update` and review the diff.
func TestJSONGolden(t *testing.T) {
	forEachScenario(t, func(t *testing.T, g golden) {
		got := jsonOutput(t, g.plan())
		if want := readGolden(t, g.stem+".json", got); !bytes.Equal(got, want) {
			t.Errorf("-json output drifted from %s.json.\nGot:\n%s\nWant:\n%s\nIf intentional, rerun with -update and review.",
				g.stem, got, want)
		}
	})
}

// TestJSONWorkerInvariance reruns every golden sweep at -workers 1 and at
// -workers NumCPU and checks both byte streams match the golden file
// (written at -workers 4): results are a pure function of the grid, never
// of the host.
func TestJSONWorkerInvariance(t *testing.T) {
	forEachScenario(t, func(t *testing.T, g golden) {
		want, err := os.ReadFile(filepath.Join("testdata", g.stem+".json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, runtime.NumCPU()} {
			p := g.plan()
			p.sweep.Workers = workers
			if got := jsonOutput(t, p); !bytes.Equal(got, want) {
				t.Errorf("-workers=%d JSON differs from the golden (-workers=4) output", workers)
			}
		}
	})
}

// TestTableGolden pins every sweep's aligned table and -csv output byte
// for byte, at one repeat and at two (which adds the ±stddev fields).
// Regenerate with `go test ./cmd/o2bench -run TestTableGolden/NAME
// -update` and review the diff.
func TestTableGolden(t *testing.T) {
	forEachScenario(t, func(t *testing.T, g golden) {
		for _, repeats := range []int{1, 2} {
			p := g.plan()
			p.sweep.Repeats = repeats
			res := runSweep(t, p)
			for _, ext := range []string{"txt", "csv"} {
				var buf bytes.Buffer
				if err := p.render(&buf, p.title, res, ext == "csv"); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s_r%d.%s", g.stem, repeats, ext)
				if want := readGolden(t, name, buf.Bytes()); !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("output drifted from %s.\nGot:\n%s\nWant:\n%s", name, buf.Bytes(), want)
				}
			}
		}
	})
}

// TestExitCodes checks the exit status main derives from run: 0 for -h,
// 2 for usage errors, on the sweep and the hand-written subcommands.
// None of the cases runs a simulation.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"kv", "-h"}, 0},
		{[]string{"scale", "-help"}, 0},
		{[]string{"fig2", "-h"}, 0},
		{[]string{"trace", "-h"}, 0},
		{[]string{"kv", "-bogus"}, 2},
		{[]string{"fig4a", "-json", "-csv"}, 2},
		{[]string{"migration", "-trials", "x"}, 2},
		{[]string{"ablation", "-exp", "bogus"}, 2},
		{[]string{"bogus"}, 2},
	} {
		if got := exitCode(run(tc.args[0], tc.args[1:])); got != tc.want {
			t.Errorf("o2bench %v exits %d, want %d", tc.args, got, tc.want)
		}
	}
	if got := exitCode(fmt.Errorf("sweep failed")); got != 1 {
		t.Errorf("a run failure exits %d, want 1", got)
	}
}

// goldenFig4Config is a reduced, fully deterministic Figure-4 sweep: small
// machine, two grid points, two repeats. It exists to pin the -json output
// schema, not to reproduce the paper's numbers.
func goldenFig4Config() o2.Fig4Config {
	p := o2.DefaultRunParams()
	p.Threads = 4
	p.Warmup = 200_000
	p.Measure = 400_000
	p.Seed = 7
	return o2.Fig4Config{
		Machine:       o2.Tiny8,
		DirCounts:     []int{2, 6},
		EntriesPerDir: 128,
		Params:        p,
		Repeats:       2,
		Workers:       4,
	}
}

// goldenKVConfig is a reduced, fully deterministic KVService sweep:
// Tiny8 machine, a kilobyte-scale store, two mixes × two skews × all
// four placement policies, two repeats. It exists to pin the
// `o2bench kv -json` output schema and the load generator's determinism
// contract, not to reproduce full-scale numbers.
func goldenKVConfig() o2.KVConfig {
	cfg := o2.QuickKVConfig()
	cfg.Spec = o2.KVSpec{Shards: 8, SlotsPerShard: 64, SlotBytes: 64, Keys: 1 << 12}
	cfg.Load = o2.KVLoad{Clients: 8, OpsPerClient: 150}
	cfg.Skews = []float64{0, 0.99}
	cfg.Repeats = 2
	cfg.Workers = 4
	cfg.Seed = 7
	return cfg
}

// goldenWebConfig is a reduced, fully deterministic WebService sweep:
// Tiny8 machine, a small document tree, two arrival rates (one under and
// one past saturation) × two compaction shares × all four placement
// policies, two repeats. It exists to pin the `o2bench web -json` output
// schema and the open-loop driver's determinism contract — arrival
// schedules, queue/drop accounting, and merged latency histograms must be
// a pure function of the grid — not to reproduce full-scale numbers.
func goldenWebConfig() o2.WebConfig {
	cfg := o2.QuickWebConfig()
	cfg.Spec = o2.WebSpec{DocRoots: 8, FilesPerRoot: 64}
	cfg.Load.Requests = 200
	cfg.Rates = []float64{500_000, 4_000_000}
	cfg.CompactionShares = []float64{0, 0.5}
	cfg.Repeats = 2
	cfg.Workers = 4
	cfg.Seed = 7
	return cfg
}

// goldenScaleConfig is a reduced, fully deterministic scale sweep that
// still spans the interesting extremes: the 8-core Tiny8 machine and the
// 256-core NUMA256 machine — the latter exercising the multi-word sharer
// bitset and the saturating bandwidth meters under the sweep engine —
// across both services and both policies, two repeats. It exists to pin
// the `o2bench scale -json` schema and the big-machine determinism
// contract (a NUMA256 cell must be a pure function of the grid), not to
// reproduce full-scale numbers.
func goldenScaleConfig() o2.ScaleConfig {
	cfg := o2.QuickScaleConfig()
	cfg.Machines = []o2.Topology{o2.Tiny8, o2.NUMA256}
	cfg.DirsPerCore = 2
	cfg.EntriesPerDir = 64
	cfg.Params.Warmup = 100_000
	cfg.Params.Measure = 200_000
	cfg.ShardsPerCore = 1
	cfg.SlotsPerShard = 32
	cfg.Load.OpsPerClient = 30
	cfg.Repeats = 2
	cfg.Workers = 4
	cfg.Seed = 7
	return cfg
}

// goldenSoakConfig is the quick soak at 2k requests per cell: the
// direct-handoff drive on Tiny8, thread scheduler vs CoreTime, two
// repeats.
func goldenSoakConfig() o2.WebConfig {
	cfg := o2.QuickSoakWebConfig()
	cfg.Load.Requests = 2000
	cfg.Repeats = 2
	cfg.Workers = 4
	cfg.Seed = 7
	return cfg
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/o2"
)

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// registryCounts maps per-layer count names to the Runtime.Metrics()
// names they sum over the cells of one repeat.
var registryCounts = []struct{ name, registry, unit string }{
	{"sim.events", "engine.events_dispatched", "count"},
	{"sim.fast_sleeps", "engine.fast_sleeps", "count"},
	{"machine.loads", "machine.loads", "count"},
	{"machine.stores", "machine.stores", "count"},
	{"machine.l2_misses", "machine.l2_misses", "count"},
	{"machine.remote_fetches", "machine.remote_fetches", "count"},
	{"machine.dram_loads", "machine.dram_loads", "count"},
	{"machine.dram_queue_cycles", "machine.dram_queue_cycles", "cycles"},
	{"machine.link_queue_cycles", "machine.link_queue_cycles", "cycles"},
	{"core.ops", "sched.ops", "count"},
	{"core.migrations", "sched.migrations", "count"},
	{"core.rebalances", "sched.rebalances", "count"},
	{"core.objects_moved", "sched.objects_moved", "count"},
}

// sum adds one registry metric over every rebuilt cell.
func (rb rebuilt) sum(name string) float64 {
	var s float64
	for _, c := range rb.counts {
		s += c[name]
	}
	return s
}

// term is one layer's modelled host time per repeat: work count × unit
// cost, with the base it was computed from.
type term struct {
	layer string
	ns    float64
	base  string
}

// split models the host time of one repeat as work counts × unit costs.
// Costs are self costs where the probes nest: a machine access includes
// its cache lookups and directory probes, so the machine layer keeps only
// what is left of Machine.Access after them. The per-access decomposition
// is a model of the access path, not a measurement of it; the residual
// shows how much of the measured repeat it leaves unexplained.
func (b *bench) split(rb rebuilt, cost map[string]float64) []term {
	events := rb.sum("engine.events_dispatched")
	loads, stores := rb.sum("machine.loads"), rb.sum("machine.stores")
	accesses := loads + stores
	l2 := rb.sum("machine.l2_misses")
	ops := rb.sum("sched.ops")

	// Each access scans a 16-way L2 set (the 2-way L1 probe before it is
	// left in the machine's own cost); an L2 miss also scans the chip's L3
	// and installs into L2 and L1, about three more full-set scans.
	cacheNS := accesses*cost["cache.hit_ns"] + l2*3*cost["cache.miss_ns"]
	// Each L2 miss probes the directory for holders and adds a sharer;
	// each store acquires ownership.
	var cohNS, dramNS float64
	var cohBase string
	if b.w.wideDirectory {
		cohNS = 2*l2*cost["coherence.probe_wide_ns"] + stores*cost["coherence.invalidate_wide_ns"]
		cohBase = fmt.Sprintf("2 × %.4g L2 misses × %.3g ns + %.4g stores × %.3g ns (288 nodes)",
			l2, cost["coherence.probe_wide_ns"], stores, cost["coherence.invalidate_wide_ns"])
		dramNS = cost["machine.dram_miss_wide_ns"]
	} else {
		cohNS = (2*l2 + stores) * cost["coherence.probe_ns"]
		cohBase = fmt.Sprintf("(2 × %.4g L2 misses + %.4g stores) × %.3g ns (20 nodes)",
			l2, stores, cost["coherence.probe_ns"])
		dramNS = cost["machine.remote_miss_ns"]
	}
	// Remote fetches pay the remote-miss probe's path and DRAM loads the
	// DRAM-miss probe's (the remote one on AMD16, which has no DRAM
	// probe); accesses served on chip pay about an L1 hit's.
	remote, dram := rb.sum("machine.remote_fetches"), rb.sum("machine.dram_loads")
	onChip := accesses - remote - dram
	machNS := onChip*cost["machine.l1_hit_ns"] + remote*cost["machine.remote_miss_ns"] + dram*dramNS - cacheNS - cohNS
	var lookups float64
	for ci, oc := range rb.perCell {
		lookups += oc.ops * b.w.lookupsPerOp(b.cells[ci])
	}
	// fatfs.lookup_us, µs per 1000-entry lookup, is also ns per entry.
	fatNS := lookups * b.w.entriesPerLookup * cost["fatfs.lookup_us"]
	return []term{
		{"sim", events * cost["sim.switch_ns"],
			fmt.Sprintf("%.4g events × %.3g ns", events, cost["sim.switch_ns"])},
		{"cache", cacheNS, fmt.Sprintf("%.4g accesses × %.3g ns + %.4g L2 misses × 3 × %.3g ns",
			accesses, cost["cache.hit_ns"], l2, cost["cache.miss_ns"])},
		{"coherence", cohNS, cohBase},
		{"machine", math.Max(machNS, 0), fmt.Sprintf("%.4g on-chip × %.3g ns + %.4g remote × %.3g ns + %.4g DRAM × %.3g ns − cache − coherence",
			onChip, cost["machine.l1_hit_ns"], remote, cost["machine.remote_miss_ns"], dram, dramNS)},
		{"fatfs", fatNS, fmt.Sprintf("%.4g lookups × %.0f entries × %.3g µs/1000 entries",
			lookups, b.w.entriesPerLookup, cost["fatfs.lookup_us"])},
		{"core", ops * cost["core.op_ns"], fmt.Sprintf("%.4g ops × %.3g ns", ops, cost["core.op_ns"])},
	}
}

// digest hashes every simulated output of the run: the first round's
// runner metrics for every cell and repeat, the rebuilt repeat's metrics
// and its registry counts. A change that alters any simulated statistic
// changes it; host timings are not part of it.
func (b *bench) digest(rb rebuilt) string {
	h := sha256.New()
	put := func(prefix string, m map[string]float64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var bits [8]byte
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(m[k]))
			fmt.Fprintf(h, "%s %s ", prefix, k)
			h.Write(bits[:])
		}
	}
	for ci, reps := range b.ref {
		for r, m := range reps {
			put(fmt.Sprintf("sweep %d %d", ci, r), m)
		}
	}
	for ci := range rb.perCell {
		put(fmt.Sprintf("rebuilt %d", ci), rb.perCell[ci].metrics)
		put(fmt.Sprintf("counts %d", ci), rb.counts[ci])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// modelMetrics are the simulated results the run reports beside its host
// costs, from the first round's steady repeats.
func (b *bench) modelMetrics(out io.Writer, rb rebuilt) []metric {
	mean := func(cell int, key string) float64 {
		var s float64
		n := 0
		for r := 1; r < len(b.ref[cell]); r++ {
			s += b.ref[cell][r][key]
			n++
		}
		return s / float64(n)
	}
	base, ct := b.cellOf("thread-scheduler"), b.cellOf("coretime")
	var speedup, p99Base, p99CT float64
	switch b.w.name {
	case "fig4":
		speedup = mean(ct, "kres_per_sec") / mean(base, "kres_per_sec")
		fmt.Fprintf(out, "# model: fig4 CoreTime speedup %.2fx against the paper's 2-3x mid-range band\n", speedup)
	case "soak":
		p99Base, p99CT = mean(base, "p99_cycles"), mean(ct, "p99_cycles")
		speedup = p99Base / p99CT
	case "scale":
		speedup = mean(ct, "kops_per_sec") / mean(base, "kops_per_sec")
	}
	accesses := rb.sum("machine.loads") + rb.sum("machine.stores")
	return []metric{
		{"model.coretime_speedup", speedup, "x"},
		{"model.offchip_frac", (rb.sum("machine.remote_fetches") + rb.sum("machine.dram_loads")) / accesses, "fraction"},
		{"model.p99_cycles.coretime", p99CT, "cycles"},
		{"model.p99_cycles.thread-scheduler", p99Base, "cycles"},
	}
}

func (b *bench) cellOf(pol string) int {
	for i, c := range b.cells {
		if policy(c) == pol {
			return i
		}
	}
	panic("hostbench: no " + pol + " cell")
}

// latencyErrMax is the largest relative error of the simulated AMD16
// latencies against the values the paper's §5 table gives.
func latencyErrMax() (float64, error) {
	rows, err := o2.LatencyTable()
	if err != nil {
		return 0, err
	}
	var worst float64
	for _, r := range rows {
		if r.Paper == 0 {
			continue
		}
		worst = math.Max(worst, math.Abs(float64(r.Measured)-float64(r.Paper))/float64(r.Paper))
	}
	return worst, nil
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

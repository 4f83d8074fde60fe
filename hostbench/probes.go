package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fatfs"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// probe is the unit-cost timing of one internal layer's exported
// function: run makes n calls and returns the host time they took.
type probe struct {
	name string
	unit string // "ns", or "us" for the fatfs lookup
	run  func(n int) (time.Duration, error)
	n    int
}

// probeRuns is how many timings each probe takes; it reports the median.
const probeRuns = 5

var probes = []probe{
	{name: "sim.event_ns", unit: "ns", run: probeEvent, n: 200_000},
	{name: "sim.switch_ns", unit: "ns", run: probeSwitch, n: 50_000},
	{name: "cache.hit_ns", unit: "ns", run: probeCache(true), n: 1_000_000},
	{name: "cache.miss_ns", unit: "ns", run: probeCache(false), n: 1_000_000},
	{name: "coherence.probe_ns", unit: "ns", run: probeDirectory(20), n: 1_000_000},
	{name: "coherence.probe_wide_ns", unit: "ns", run: probeDirectory(288), n: 1_000_000},
	{name: "coherence.invalidate_wide_ns", unit: "ns", run: probeInvalidateWide, n: 500_000},
	{name: "machine.l1_hit_ns", unit: "ns", run: probeL1Hit, n: 1_000_000},
	{name: "machine.remote_miss_ns", unit: "ns", run: probeRemoteMiss, n: 200_000},
	{name: "machine.dram_miss_wide_ns", unit: "ns", run: probeDRAMMissWide, n: 200_000},
	{name: "fatfs.lookup_us", unit: "us", run: probeFatfsLookup, n: 2_000},
	{name: "core.op_ns", unit: "ns", run: probeCoreOp, n: 100_000},
}

// runProbes times every probe and returns its median cost per call in the
// probe's unit at the reference speed, recording each timing as a span.
func (b *bench) runProbes() (map[string]float64, error) {
	costs := map[string]float64{}
	for _, p := range probes {
		per := make([]float64, 0, probeRuns)
		for i := 0; i < probeRuns; i++ {
			speed := b.kernel.speed()
			t0 := b.since()
			d, err := p.run(p.n)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			b.spans.add("probe/"+p.name, "probe", t0, b.since()-t0, map[string]any{"calls": p.n})
			v := float64(d.Nanoseconds()) / float64(p.n) / speed
			if p.unit == "us" {
				v /= 1000
			}
			per = append(per, v)
		}
		sort.Float64s(per)
		costs[p.name] = per[len(per)/2]
	}
	return costs, nil
}

// probeEvent times Engine.After plus its dispatch by Run: a chain of
// one-cycle timers over a backlog of far-future events, so the heap has a
// realistic depth.
func probeEvent(n int) (time.Duration, error) {
	eng := sim.NewEngine()
	for i := 0; i < 1024; i++ {
		eng.At(sim.Time(1<<40)+sim.Time(i), func() {})
	}
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < n {
			eng.After(1, tick)
		}
	}
	t0 := time.Now()
	eng.After(1, tick)
	eng.Run(sim.Time(1 << 39))
	d := time.Since(t0)
	if count != n {
		return 0, fmt.Errorf("dispatched %d timers, want %d", count, n)
	}
	return d, nil
}

// probeSwitch times Proc.Sleep when it cannot fast-forward: two procs
// sleep in turn, so every Sleep hands control to the engine and on to the
// other proc.
func probeSwitch(n int) (time.Duration, error) {
	eng := sim.NewEngine()
	sleeps := 0
	for i := 0; i < 2; i++ {
		eng.Spawn(fmt.Sprintf("sleeper %d", i), func(p *sim.Proc) {
			for j := 0; j < n/2; j++ {
				p.Sleep(1)
				sleeps++
			}
		})
	}
	t0 := time.Now()
	eng.Run(0)
	d := time.Since(t0)
	if eng.FastSleeps() != 0 || sleeps != n/2*2 {
		return 0, fmt.Errorf("%d sleeps, %d fast-forwarded; want %d, none", sleeps, eng.FastSleeps(), n/2*2)
	}
	return d, nil
}

// probeSeq is the length of a probe's precomputed random access sequence.
const probeSeq = 1 << 16

// probeCache times Cache.Lookup on sixteen full caches of the AMD16 L2
// geometry, one per core of the machine, at random resident lines (hits)
// or random absent lines (misses, which scan a full set).
func probeCache(hit bool) func(int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		geom := topology.AMD16().L2
		capacity := geom.Size / geom.LineSize
		rng := rand.New(rand.NewPCG(1, 2))
		caches := make([]*cache.Cache, 16)
		resident := make([][]cache.Line, len(caches))
		for i := range caches {
			caches[i] = cache.New(geom)
			base := cache.Line(i) << 32
			for l := 0; l < 2*capacity; l++ {
				caches[i].Insert(base+cache.Line(l), false)
			}
			resident[i] = caches[i].Lines()
		}
		type access struct {
			c *cache.Cache
			l cache.Line
		}
		seq := make([]access, probeSeq)
		for i := range seq {
			ci := rng.IntN(len(caches))
			l := resident[ci][rng.IntN(len(resident[ci]))]
			if !hit {
				l = cache.Line(ci)<<32 + cache.Line(4*capacity+rng.IntN(capacity))
			}
			seq[i] = access{caches[ci], l}
		}
		found := 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			a := seq[i%probeSeq]
			if a.c.Lookup(a.l) {
				found++
			}
		}
		d := time.Since(t0)
		if want := map[bool]int{true: n, false: 0}[hit]; found != want {
			return 0, fmt.Errorf("%d of %d lookups hit, want %d", found, n, want)
		}
		return d, nil
	}
}

// dirLines is how many lines a probed directory tracks: about what the
// AMD16 machine's L2s and L3s hold when full.
const dirLines = 1 << 18

// populatedDirectory returns a directory of nodes nodes tracking dirLines
// lines, each held by one or two nodes, and the lines in random order.
func populatedDirectory(nodes int) (*coherence.Directory, []cache.Line) {
	rng := rand.New(rand.NewPCG(3, 4))
	d := coherence.NewDirectory(nodes)
	lines := make([]cache.Line, dirLines)
	for i := range lines {
		l := cache.Line(i * 3)
		lines[i] = l
		d.AddSharer(l, coherence.Node(rng.IntN(nodes)))
		if i%4 == 0 {
			d.AddSharer(l, coherence.Node(rng.IntN(nodes)))
		}
	}
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return d, lines
}

// probeDirectory times the read probe the machine issues on every miss,
// at random tracked lines: HolderMask on the one-word directory,
// CopyHolderWords on a wide one.
func probeDirectory(nodes int) func(int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		d, lines := populatedDirectory(nodes)
		var sink uint64
		t0 := time.Now()
		if d.NumWords() == 1 {
			for i := 0; i < n; i++ {
				sink |= d.HolderMask(lines[i%dirLines])
			}
		} else {
			words := make([]uint64, d.NumWords())
			for i := 0; i < n; i++ {
				if d.CopyHolderWords(lines[i%dirLines], words) {
					sink++
				}
			}
		}
		dur := time.Since(t0)
		if sink == 0 {
			return 0, fmt.Errorf("no holders found")
		}
		return dur, nil
	}
}

// probeInvalidateWide times a store's ownership acquisition on the
// 288-node NUMA256 directory at random tracked lines: a sharer joins, then
// AcquireExclusiveWords invalidates every other holder.
func probeInvalidateWide(n int) (time.Duration, error) {
	const nodes = 288
	d, lines := populatedDirectory(nodes)
	inv := make([]uint64, d.NumWords())
	invalidated := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l := lines[i%dirLines]
		d.AddSharer(l, coherence.Node(64+i%200))
		if d.AcquireExclusiveWords(l, 0, inv) {
			invalidated++
		}
	}
	dur := time.Since(t0)
	if invalidated != n {
		return 0, fmt.Errorf("%d of %d stores invalidated a sharer", invalidated, n)
	}
	return dur, nil
}

// filledAMD16 returns an AMD16 machine whose every L2 and L3 is full of
// lines private to one core, as in a run whose working set exceeds the
// caches, and the next issue time. Private lines sit at and above
// privateBase.
func filledAMD16() (*machine.Machine, sim.Time, error) {
	cfg := topology.AMD16()
	m, err := machine.New(cfg, 64<<20)
	if err != nil {
		return nil, 0, err
	}
	fill := 2 * cfg.L2.Size / cfg.L2.LineSize
	line := mem.Addr(m.LineSize())
	var at sim.Time
	for core := 0; core < m.NumCores(); core++ {
		base := privateBase + mem.Addr(core*fill)*line
		for l := 0; l < fill; l++ {
			at += sim.Time(m.Access(core, base+mem.Addr(l)*line, false, at))
		}
	}
	return m, at, nil
}

// privateBase is where filledAMD16's private lines start; probes use the
// addresses below it.
const privateBase = mem.Addr(16 << 20)

// probeL1Hit times Machine.Access on a filled AMD16 for loads that hit
// L1, at random lines resident in the L1s of all sixteen cores.
func probeL1Hit(n int) (time.Duration, error) {
	m, at, err := filledAMD16()
	if err != nil {
		return 0, err
	}
	const perCore = 256
	rng := rand.New(rand.NewPCG(5, 6))
	line := mem.Addr(m.LineSize())
	for core := 0; core < m.NumCores(); core++ {
		for l := 0; l < perCore; l++ {
			at += sim.Time(m.Access(core, mem.Addr(core*perCore+l)*line, false, at))
		}
	}
	type access struct {
		core int
		addr mem.Addr
	}
	seq := make([]access, probeSeq)
	for i := range seq {
		core := rng.IntN(m.NumCores())
		seq[i] = access{core, mem.Addr(core*perCore+rng.IntN(perCore)) * line}
	}
	misses := m.Counters().Total().L1Miss
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := seq[i%probeSeq]
		at += sim.Time(m.Access(a.core, a.addr, false, at))
	}
	d := time.Since(t0)
	if got := m.Counters().Total().L1Miss - misses; got != 0 {
		return 0, fmt.Errorf("%d of %d loads missed L1", got, n)
	}
	return d, nil
}

// probeRemoteMiss times Machine.Access on a filled AMD16 for lines passed
// between chips: a store on one chip invalidates the line everywhere
// else, then a load on another chip fetches it from the writer's cache.
// Lines and core pairs are random; it reports per access.
func probeRemoteMiss(n int) (time.Duration, error) {
	cfg := topology.AMD16()
	m, at, err := filledAMD16()
	if err != nil {
		return 0, err
	}
	const lines = 8192
	rng := rand.New(rand.NewPCG(7, 8))
	type pass struct {
		writer, reader int
		addr           mem.Addr
	}
	seq := make([]pass, probeSeq)
	for i := range seq {
		w := rng.IntN(m.NumCores())
		r := (w + cfg.CoresPerChip*(1+rng.IntN(cfg.Chips-1)) + rng.IntN(cfg.CoresPerChip)) % m.NumCores()
		seq[i] = pass{w, r, mem.Addr(rng.IntN(lines) * m.LineSize())}
	}
	before := m.Counters().Total().RemoteFetches
	t0 := time.Now()
	for i := 0; i < n/2; i++ {
		p := seq[i%probeSeq]
		at += sim.Time(m.Access(p.writer, p.addr, true, at))
		at += sim.Time(m.Access(p.reader, p.addr, false, at))
	}
	d := time.Since(t0)
	if got := m.Counters().Total().RemoteFetches - before; got < uint64(n/4) {
		return 0, fmt.Errorf("%d remote fetches in %d accesses", got, n)
	}
	return d, nil
}

// probeDRAMMissWide times Machine.Access on NUMA256 for loads that miss
// every cache: one core streams over a region larger than its chip's
// caches, so each line comes from DRAM.
func probeDRAMMissWide(n int) (time.Duration, error) {
	cfg := topology.NUMA256()
	const region = 16 << 20
	m, err := machine.New(cfg, region)
	if err != nil {
		return 0, err
	}
	line := mem.Addr(m.LineSize())
	lines := mem.Addr(region) / line
	var at sim.Time
	t0 := time.Now()
	for i := 0; i < n; i++ {
		at += sim.Time(m.Access(0, mem.Addr(i)%lines*line, false, at))
	}
	d := time.Since(t0)
	if got := m.Counters().Total().DRAMLoads; got != uint64(n) {
		return 0, fmt.Errorf("%d of %d loads went to DRAM", got, n)
	}
	return d, nil
}

// probeFatfsLookup times FS.Lookup of the last entry of a 1000-entry
// directory, charging no memory costs, so it is the lookup's own scan.
func probeFatfsLookup(n int) (time.Duration, error) {
	const entries = 1000
	fs, err := fatfs.Format(mem.NewImage(4<<20), fatfs.Config{TotalBytes: 2 << 20, SectorsPerCluster: 8, RootEntries: 64})
	if err != nil {
		return 0, err
	}
	null := fatfs.NullAccess{}
	d, err := fs.Mkdir(null, fs.Root(), "DIR00000", entries)
	if err != nil {
		return 0, err
	}
	name := func(i int) string { return fmt.Sprintf("F%07d", i) }
	if err := fs.Populate(d, entries, name); err != nil {
		return 0, err
	}
	last := name(entries - 1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := fs.Lookup(null, d, last); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// probeCoreOp times CoreTime's OpStart/OpEnd pair on one object inside a
// running simulation, with the monitor off so nothing migrates.
func probeCoreOp(n int) (time.Duration, error) {
	m, err := machine.New(topology.AMD16(), 1<<20)
	if err != nil {
		return 0, err
	}
	obj, err := m.Image().AllocObject("probe", 4096)
	if err != nil {
		return 0, err
	}
	eng := sim.NewEngine()
	sys := exec.NewSystem(eng, m, exec.DefaultOptions())
	opts := core.DefaultOptions()
	opts.RebalanceInterval = 0
	ct := core.New(sys, opts)
	var d time.Duration
	sys.Go("probe", 0, func(t *exec.Thread) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ct.OpStart(t, obj.Base)
			ct.OpEnd(t)
		}
		d = time.Since(t0)
	})
	eng.Run(0)
	if got := ct.Stats().Ops; got != uint64(n) {
		return 0, fmt.Errorf("%d ops counted, want %d", got, n)
	}
	return d, nil
}

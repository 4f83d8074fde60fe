// Package machine composes the simulated multicore: per-core L1/L2 caches,
// per-chip victim L3s, a MOESI-style coherence directory, distance-dependent
// interconnect latencies, bandwidth-limited DRAM controllers, and per-core
// event counters.
//
// The central entry point is Access (and the Load/Store/AccessRange
// wrappers): given a core, an address range, and the current simulated
// time, it walks the hierarchy exactly as the paper's AMD machine would —
// L1, L2, chip L3, then the nearest remote cache or a DRAM bank — updates
// cache and directory state, increments the event counters CoreTime's
// monitor reads, and returns the access latency in cycles. Callers (the
// execution substrate in internal/exec) advance simulated time by the
// returned amount.
//
// Modeling choices that matter to the paper's results:
//
//   - The L3 is an exclusive victim cache (as on the paper's Opterons):
//     lines live in L3 only after eviction from an L2. This is what makes
//     the paper's "16 MB total on-chip = 4×2MB L3 + 16×512KB L2" capacity
//     arithmetic hold.
//   - DRAM controllers (one per chip, lines interleaved across chips by
//     address) serve at most one line per DRAMServiceInterval cycles;
//     excess demand queues. Saturating off-chip bandwidth is the failure
//     mode O2 scheduling exists to avoid, so it must be first-class.
//   - Coherence is MOESI-like: a dirty line can remain "owned" by one core
//     while read-shared by others; a write invalidates all other copies.
package machine

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/perfctr"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Machine is the simulated multicore system.
type Machine struct {
	cfg topology.Config
	img *mem.Image
	l1  []*cache.Cache // per core
	l2  []*cache.Cache // per core
	l3  []*cache.Cache // per chip
	dir *coherence.Directory
	ctr *perfctr.Set

	// dram[chip] meters the chip's memory-controller bandwidth.
	dram []bwMeter
	// link[chip] meters the chip's interconnect port: line transfers that
	// leave the chip (remote-cache sourcing, remote-home DRAM fills)
	// queue here when cross-socket traffic exceeds LinkServiceInterval.
	// nil when the topology does not model interconnect bandwidth.
	link []bwMeter

	lineSize int

	// Derived lookup tables, computed once at construction. topology.Config
	// methods take the (large) config by value, so calling them per line
	// access copies the whole struct; the hot paths read these instead.
	ncores    int
	chipOf    []int          // core -> chip
	hop       [][]int        // chip × chip Manhattan distance
	remoteLat [][]sim.Cycles // chip × chip remote-cache fetch latency
	dramLat   [][]sim.Cycles // chip × chip raw DRAM latency

	// scratchLines is reused by the invariant checks, which would
	// otherwise allocate a fresh line set on every residency scan.
	scratchLines []cache.Line

	// holderWords and invWords are per-machine scratch for the wide
	// (>64-node) directory's word APIs, sized to dir.NumWords() at
	// construction so the 256-core fan-out paths allocate nothing. Unused
	// (nil) on narrow machines, which stay on the single-word fast path.
	holderWords []uint64
	invWords    []uint64
}

// New builds a machine from cfg with memBytes of simulated DRAM.
func New(cfg topology.Config, memBytes int) (*Machine, error) {
	return NewWithMemLimit(cfg, memBytes, memBytes)
}

// NewWithMemLimit builds a machine whose memory image starts at memBytes
// and grows on demand up to memLimit. Sweep cells start images at the
// workload's exact requirement (zeroing the backing array is a real cost
// when thousands of short-lived machines are built) while keeping the
// allocation headroom of the larger limit.
func NewWithMemLimit(cfg topology.Config, memBytes, memLimit int) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NumCores()
	if nodes := n + cfg.Chips; nodes > coherence.MaxNodes {
		// Fail loudly here rather than panicking inside the directory:
		// a machine too wide for the sharer bitset would silently alias
		// holder bits and corrupt every coherence decision.
		return nil, fmt.Errorf("machine: %d cores + %d chips = %d directory nodes exceeds the supported maximum %d",
			n, cfg.Chips, nodes, coherence.MaxNodes)
	}
	if limit := max(memBytes, memLimit); (limit+cfg.L1.LineSize-1)/cfg.L1.LineSize > coherence.MaxLines {
		// The directory is indexed by line number, so every line of the
		// image must fit under its ceiling.
		return nil, fmt.Errorf("machine: a %d-byte memory image has more lines than the directory's maximum %d",
			limit, coherence.MaxLines)
	}
	m := &Machine{
		cfg:      cfg,
		img:      mem.NewImageWithLimit(memBytes, memLimit),
		l1:       make([]*cache.Cache, n),
		l2:       make([]*cache.Cache, n),
		l3:       make([]*cache.Cache, cfg.Chips),
		dir:      coherence.NewDirectory(n + cfg.Chips),
		ctr:      perfctr.NewSet(n),
		dram:     make([]bwMeter, cfg.Chips),
		lineSize: cfg.L1.LineSize,
	}
	for i := range m.dram {
		m.dram[i] = newBWMeter(cfg.Lat.DRAMServiceInterval)
	}
	if cfg.Lat.LinkServiceInterval > 0 && cfg.Chips > 1 {
		m.link = make([]bwMeter, cfg.Chips)
		for i := range m.link {
			m.link[i] = newBWMeter(cfg.Lat.LinkServiceInterval)
		}
	}
	if w := m.dir.NumWords(); w > 1 {
		m.holderWords = make([]uint64, w)
		m.invWords = make([]uint64, w)
	}
	for i := 0; i < n; i++ {
		m.l1[i] = cache.New(cfg.L1)
		m.l2[i] = cache.New(cfg.L2)
	}
	for i := 0; i < cfg.Chips; i++ {
		m.l3[i] = cache.New(cfg.L3)
	}
	m.ncores = n
	m.chipOf = make([]int, n)
	for i := 0; i < n; i++ {
		m.chipOf[i] = cfg.ChipOf(i)
	}
	m.hop = make([][]int, cfg.Chips)
	m.remoteLat = make([][]sim.Cycles, cfg.Chips)
	m.dramLat = make([][]sim.Cycles, cfg.Chips)
	for a := 0; a < cfg.Chips; a++ {
		m.hop[a] = make([]int, cfg.Chips)
		m.remoteLat[a] = make([]sim.Cycles, cfg.Chips)
		m.dramLat[a] = make([]sim.Cycles, cfg.Chips)
		for b := 0; b < cfg.Chips; b++ {
			m.hop[a][b] = cfg.HopDistance(a, b)
			m.remoteLat[a][b] = cfg.RemoteCacheLatency(a, b)
			m.dramLat[a][b] = cfg.DRAMLatency(a, b)
		}
	}
	return m, nil
}

// MustNew is New for configurations known valid at compile time (presets).
func MustNew(cfg topology.Config, memBytes int) *Machine {
	m, err := New(cfg, memBytes)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine's topology.
func (m *Machine) Config() topology.Config { return m.cfg }

// Image returns the simulated physical memory.
func (m *Machine) Image() *mem.Image { return m.img }

// Counters returns the per-core event counters.
func (m *Machine) Counters() *perfctr.Set { return m.ctr }

// LineSize returns the cache line size in bytes.
func (m *Machine) LineSize() int { return m.lineSize }

// NumCores returns the machine's core count without copying the config.
func (m *Machine) NumCores() int { return m.ncores }

// ChipOf returns the chip of core via the precomputed table — the cheap
// form of Config().ChipOf for per-operation callers.
func (m *Machine) ChipOf(core int) int { return m.chipOf[core] }

// HopDist returns the Manhattan distance between two chips via the
// precomputed table.
func (m *Machine) HopDist(a, b int) int { return m.hop[a][b] }

// L1 returns core's L1 cache (for inspection and tests).
func (m *Machine) L1(core int) *cache.Cache { return m.l1[core] }

// L2 returns core's L2 cache.
func (m *Machine) L2(core int) *cache.Cache { return m.l2[core] }

// L3 returns chip's shared L3 cache.
func (m *Machine) L3(chip int) *cache.Cache { return m.l3[chip] }

// Directory returns the coherence directory (for inspection and tests).
func (m *Machine) Directory() *coherence.Directory { return m.dir }

// coreNode and l3Node map hardware structures to directory nodes.
func (m *Machine) coreNode(core int) coherence.Node { return coherence.Node(core) }
func (m *Machine) l3Node(chip int) coherence.Node {
	return coherence.Node(m.ncores + chip)
}

// homeChip returns the chip whose memory controller owns a line. Lines are
// interleaved across chips by line number, the usual commodity policy.
func (m *Machine) homeChip(l cache.Line) int { return int(uint64(l) % uint64(m.cfg.Chips)) }

// Access performs one memory access of up to a cache line at addr and
// returns its latency. `at` is the simulated time the access issues;
// callers performing batched scans pass at + (latency accumulated so far).
func (m *Machine) Access(core int, addr mem.Addr, write bool, at sim.Time) sim.Cycles {
	return m.accessLine(core, cache.LineOf(addr, m.lineSize), write, at)
}

// Load charges a read of [addr, addr+size) and returns its total latency.
// The range may span many lines; each is charged in sequence.
func (m *Machine) Load(core int, addr mem.Addr, size int, at sim.Time) sim.Cycles {
	return m.AccessRange(core, addr, size, false, at)
}

// Store charges a write of [addr, addr+size) and returns its total latency.
func (m *Machine) Store(core int, addr mem.Addr, size int, at sim.Time) sim.Cycles {
	return m.AccessRange(core, addr, size, true, at)
}

// AccessRange charges an access to every line overlapping
// [addr, addr+size), serialized, and returns the total latency. This is
// the line-batched entry point the execution substrate's cost batches
// drive: per-core state (counters, L1) is resolved once per range, not
// once per line, and the whole common case allocates nothing. The range
// must lie inside the memory image; a stray range panics rather than
// grow the line-indexed directory toward it.
//
//o2:hotpath
func (m *Machine) AccessRange(core int, addr mem.Addr, size int, write bool, at sim.Time) sim.Cycles {
	if size <= 0 {
		return 0
	}
	if end := uint64(addr) + uint64(size); end > uint64(m.img.Size()) || end < uint64(addr) {
		panic(panicOutsideImage)
	}
	first := cache.LineOf(addr, m.lineSize)
	last := cache.LineOf(addr+mem.Addr(size-1), m.lineSize)
	c := m.ctr.Core(core)
	l1 := m.l1[core]
	var total sim.Cycles
	for l := first; l <= last; l++ {
		total += m.lineAccess(core, l, write, at+total, c, l1)
	}
	return total
}

// panicOutsideImage is the panic message when AccessRange is handed a
// range that is not inside the memory image.
const panicOutsideImage = "machine: access range outside the memory image"

// accessLine is one core touching one line, resolving the per-core state
// lineAccess wants hoisted.
func (m *Machine) accessLine(core int, l cache.Line, write bool, at sim.Time) sim.Cycles {
	return m.lineAccess(core, l, write, at, m.ctr.Core(core), m.l1[core])
}

// lineAccess is the heart of the model: one core touching one line, with
// the core's counter file and L1 already resolved (AccessRange hoists
// them out of its per-line loop). The common case — an L1 hit — completes
// here without touching the directory (loads) or allocating (loads and
// stores); everything else drops into missLine, the out-of-line slow
// path.
//
//o2:hotpath
func (m *Machine) lineAccess(core int, l cache.Line, write bool, at sim.Time, c *perfctr.Counters, l1 *cache.Cache) sim.Cycles {
	if write {
		c.Stores++
	} else {
		c.Loads++
	}
	var lat sim.Cycles
	if l1.Lookup(l) {
		lat = m.l1HitTail(core, l, write, c)
	} else {
		c.L1Miss++
		lat = m.missLine(core, l, write, at, c)
	}
	c.StallCycles += uint64(lat)
	return lat
}

// l1HitTail finishes an access whose line hit L1: refresh L2 recency
// (inclusive hierarchy) and, for stores, acquire exclusive ownership.
//
//o2:hotpath
func (m *Machine) l1HitTail(core int, l cache.Line, write bool, c *perfctr.Counters) sim.Cycles {
	m.l2[core].Lookup(l)
	lat := m.cfg.Lat.L1Hit
	if write {
		lat += m.acquireOwnership(core, l, c)
	}
	return lat
}

// missLine services an access that missed L1: the core's L2, then the
// directory-guided fill, then write ownership.
//
//o2:hotpath
func (m *Machine) missLine(core int, l cache.Line, write bool, at sim.Time, c *perfctr.Counters) sim.Cycles {
	var lat sim.Cycles
	if m.l2[core].Lookup(l) {
		c.L2Loads++
		m.installL1(core, l)
		lat = m.cfg.Lat.L2Hit
	} else {
		lat = m.fill(core, l, at, c)
	}
	if write {
		lat += m.acquireOwnership(core, l, c)
	}
	return lat
}

// fill services an L2 miss from one directory probe. JoinMask (JoinWords
// on wide machines) records the core as a holder and returns the holder
// set from before the join. Directory and caches agree line for line
// (CheckInvariants), so that set alone decides where the line comes from:
//
//   - the chip's L3 bit is set: the exclusive victim L3 holds the line,
//     its Remove must hit, and the line moves back into the core's
//     private hierarchy;
//   - otherwise no L3 set is scanned, and the line comes from the nearest
//     holder in the set, or from DRAM when the set is empty.
//
// Remote-cache and DRAM fills charge memory-controller and (when modeled)
// interconnect queueing on top of the raw distance latency. Queueing
// cycles are attributed to the requesting core's bw-stall counters so the
// monitor can see where bandwidth, not distance, is the cost.
//
//o2:hotpath
func (m *Machine) fill(core int, l cache.Line, at sim.Time, c *perfctr.Counters) sim.Cycles {
	c.L2Miss++
	myChip := m.chipOf[core]
	l3node := m.l3Node(myChip)
	var mask uint64
	var held, inL3 bool
	if m.holderWords == nil {
		mask = m.dir.JoinMask(l, m.coreNode(core))
		held, inL3 = mask != 0, mask&(1<<uint(l3node)) != 0
	} else {
		held = m.dir.JoinWords(l, m.coreNode(core), m.holderWords)
		inL3 = m.holderWords[l3node>>6]&(1<<(uint(l3node)&63)) != 0
	}
	if inL3 {
		wasDirty, hit := m.l3[myChip].Remove(l)
		if !hit {
			panic(panicL3Disagrees)
		}
		m.dir.RemoveSharer(l, l3node)
		c.L3Loads++
		m.installCore(core, l, wasDirty, c)
		return m.cfg.Lat.L3Hit
	}
	c.L3Miss++
	var lat sim.Cycles
	if held {
		srcChip := m.nearestHolderChip(core, mask)
		lat = m.remoteLat[myChip][srcChip]
		c.RemoteFetches++
		if m.link != nil && srcChip != myChip {
			// The line crosses the interconnect from the source chip's
			// egress port.
			q := m.link[srcChip].reserve(at)
			lat += q
			c.LinkQueueCycles += uint64(q)
		}
	} else {
		home := m.homeChip(l)
		q := m.dramQueue(home, at)
		lat = m.dramLat[myChip][home] + q
		c.DRAMLoads++
		c.DRAMQueueCycles += uint64(q)
		if m.link != nil && home != myChip {
			// Remote-home fill: the line also transits the home chip's
			// interconnect port on its way over.
			lq := m.link[home].reserve(at)
			lat += lq
			c.LinkQueueCycles += uint64(lq)
		}
	}
	m.installCore(core, l, false, c)
	return lat
}

// panicL3Disagrees is the panic message when the directory records an L3
// copy the chip's L3 does not hold. The fill and spill paths trust the
// directory instead of scanning the L3, so a disagreement must stop the
// run rather than silently change results.
const panicL3Disagrees = "machine: directory records an L3 copy the chip's L3 does not hold"

// nearestHolderChip picks the chip of the closest cache in the non-empty
// holder set fill's join returned: mask on narrow machines, the words in
// m.holderWords on wide ones. Holder bits are visited in ascending node
// order, matching the directory's fan-out order. The requesting core
// itself is not in the set (it had just missed).
//
//o2:hotpath
func (m *Machine) nearestHolderChip(core int, mask uint64) int {
	if m.holderWords == nil {
		return m.nearestInWord(core, mask, 0)
	}
	myChip := m.chipOf[core]
	best, bestDist := 0, int(^uint(0)>>1)
	for w, word := range m.holderWords {
		if word == 0 {
			continue
		}
		c := m.nearestInWord(core, word, w*64)
		if d := m.hop[myChip][c]; d < bestDist {
			best, bestDist = c, d
			if d == 0 {
				break
			}
		}
	}
	return best
}

// nearestInWord scans one non-zero holder word (nodes [base, base+64))
// and returns the holder chip closest to core.
//
//o2:hotpath
func (m *Machine) nearestInWord(core int, mask uint64, base int) (chip int) {
	myChip := m.chipOf[core]
	best, bestDist := 0, int(^uint(0)>>1)
	ncores := m.ncores
	hop := m.hop[myChip]
	for mm := mask; mm != 0; {
		node := base + bits.TrailingZeros64(mm)
		mm &= mm - 1
		var holderChip int
		if node < ncores {
			holderChip = m.chipOf[node]
		} else {
			holderChip = node - ncores
		}
		d := hop[holderChip]
		if d < bestDist {
			best, bestDist = holderChip, d
			if d == 0 {
				break
			}
		}
	}
	return best
}

// dramQueue accounts one line transfer at chip's memory controller and
// returns the queueing delay beyond the raw access latency.
func (m *Machine) dramQueue(chip int, at sim.Time) sim.Cycles {
	return m.dram[chip].reserve(at)
}

// acquireOwnership makes core the sole holder after a write, invalidating
// remote copies and marking the local line dirty. Returns the added cost.
// The directory work is one fused acquire-exclusive probe; the
// invalidation set comes back as a bitmask (narrow) or as words written
// into machine-owned scratch (wide), so no store ever allocates.
//
//o2:hotpath
func (m *Machine) acquireOwnership(core int, l cache.Line, c *perfctr.Counters) sim.Cycles {
	node := m.coreNode(core)
	var extra sim.Cycles
	if m.invWords == nil {
		if inv := m.dir.AcquireExclusive(l, node); inv != 0 {
			extra = m.cfg.Lat.InvalidateCost
			c.Invalidations += uint64(bits.OnesCount64(inv))
			m.invalidateWord(inv, 0, l)
		}
	} else if m.dir.AcquireExclusiveWords(l, node, m.invWords) {
		extra = m.cfg.Lat.InvalidateCost
		for w, inv := range m.invWords {
			if inv == 0 {
				continue
			}
			c.Invalidations += uint64(bits.OnesCount64(inv))
			m.invalidateWord(inv, w*64, l)
		}
	}
	m.l1[core].MarkDirty(l)
	m.l2[core].MarkDirty(l)
	return extra
}

// invalidateWord removes line l from every cache whose node bit is set in
// one holder word covering nodes [base, base+64).
//
//o2:hotpath
func (m *Machine) invalidateWord(inv uint64, base int, l cache.Line) {
	ncores := m.ncores
	for inv != 0 {
		n := base + bits.TrailingZeros64(inv)
		inv &= inv - 1
		if n < ncores {
			m.l1[n].Remove(l)
			m.l2[n].Remove(l)
		} else {
			m.l3[n-ncores].Remove(l)
		}
	}
}

// installCore inserts a fetched line into core's L1 and L2, cascading
// evictions: L2 victims fall into the chip's L3 (victim cache), L3 victims
// are written back to DRAM (holder bit dropped). Inclusion (L1 ⊆ L2) is
// maintained so the directory can treat each core's private hierarchy as a
// single node. fill's join has already recorded the core as the line's
// holder.
//
//o2:hotpath
func (m *Machine) installCore(core int, l cache.Line, dirty bool, c *perfctr.Counters) {
	// InsertNew: every install follows a failed L2 lookup on this line
	// (missLine's L2 miss), so the residency re-scan is skipped.
	if victim, vDirty, evicted := m.l2[core].InsertNew(l, dirty); evicted {
		c.Evictions++
		// Maintain inclusion: the victim may still sit in L1.
		m.l1[core].Remove(victim)
		m.spillToL3(m.chipOf[core], m.coreNode(core), victim, vDirty, c)
	}
	m.installL1(core, l)
}

// spillToL3 places an L2 victim into the chip's victim L3. The directory
// move reports whether the L3 already holds the victim (another core on
// the chip evicted its copy earlier); only then does the insert scan the
// set, to refresh the resident copy's recency and dirty bit. Otherwise the
// victim is absent and InsertNew skips the 32-way residency scan.
//
//o2:hotpath
func (m *Machine) spillToL3(chip int, from coherence.Node, victim cache.Line, dirty bool, c *perfctr.Counters) {
	l3 := m.l3[chip]
	l3node := m.l3Node(chip)
	if m.dir.MoveSharer(victim, from, l3node) {
		n := l3.Len()
		if _, _, evicted := l3.Insert(victim, dirty); evicted || l3.Len() != n {
			panic(panicL3Disagrees)
		}
		return
	}
	if w, _, evicted := l3.InsertNew(victim, dirty); evicted {
		c.Evictions++
		m.dir.RemoveSharer(w, l3node) // writeback to DRAM
	}
}

// installL1 inserts into L1 only; L1 victims need no bookkeeping because
// inclusion guarantees they remain in L2. Every caller is on the miss
// path after this core's L1 lookup failed, so InsertNew applies.
//
//o2:hotpath
func (m *Machine) installL1(core int, l cache.Line) {
	m.l1[core].InsertNew(l, false)
}

// FlushAll empties every cache and the directory (cold-start between
// benchmark phases). DRAM controller queues are also reset.
func (m *Machine) FlushAll() {
	for i := range m.l1 {
		m.l1[i].Clear()
		m.l2[i].Clear()
	}
	for i := range m.l3 {
		m.l3[i].Clear()
	}
	m.dir.Reset()
	for i := range m.dram {
		m.dram[i].reset()
	}
	for i := range m.link {
		m.link[i].reset()
	}
}

// Reset returns the machine to its just-built state for arena reuse
// across sweep repeats: caches, directory, and DRAM queues empty
// (FlushAll) and every performance counter zeroed. The memory image's
// allocation history is owned by the caller and rolled back separately
// (mem.Image.Mark / ResetTo), because only the caller knows which
// allocations are shared build state and which are per-repeat.
func (m *Machine) Reset() {
	m.FlushAll()
	m.ctr.Reset()
}

// CheckInvariants verifies the structural properties the model relies on:
//
//  1. directory ↔ cache agreement: node n holds line l in the directory
//     iff l is resident in n's cache(s), and the directory tracks no line
//     that no cache holds;
//  2. inclusion: every L1 line is also in the same core's L2;
//  3. owner validity: a line's dirty owner is one of its holders.
//
// It is called from tests after simulations; it is not on the hot path.
func (m *Machine) CheckInvariants() error {
	ncores := m.cfg.NumCores()
	for core := 0; core < ncores; core++ {
		m.scratchLines = m.l1[core].AppendLines(m.scratchLines[:0])
		for _, l := range m.scratchLines {
			if !m.l2[core].Contains(l) {
				return fmt.Errorf("machine: core %d L1 line %d violates inclusion", core, l)
			}
		}
		node := m.coreNode(core)
		m.scratchLines = m.l2[core].AppendLines(m.scratchLines[:0])
		for _, l := range m.scratchLines {
			if !m.dir.Holds(l, node) {
				return fmt.Errorf("machine: core %d holds line %d but directory disagrees", core, l)
			}
		}
	}
	for chip := 0; chip < m.cfg.Chips; chip++ {
		node := m.l3Node(chip)
		m.scratchLines = m.l3[chip].AppendLines(m.scratchLines[:0])
		for _, l := range m.scratchLines {
			if !m.dir.Holds(l, node) {
				return fmt.Errorf("machine: chip %d L3 holds line %d but directory disagrees", chip, l)
			}
		}
	}
	return m.checkDirectoryBacked()
}

// checkDirectoryBacked walks all resident lines and confirms each directory
// holder bit is backed by a real resident line. The residency scan reuses
// the machine's line scratch (sorted and deduplicated in place) instead of
// building a fresh map per call.
func (m *Machine) checkDirectoryBacked() error {
	ncores := m.cfg.NumCores()
	lines := m.scratchLines[:0]
	for i := 0; i < ncores; i++ {
		lines = m.l2[i].AppendLines(lines)
	}
	for i := 0; i < m.cfg.Chips; i++ {
		lines = m.l3[i].AppendLines(lines)
	}
	slices.Sort(lines)
	lines = slices.Compact(lines)
	m.scratchLines = lines
	if n := m.dir.TrackedLines(); n != len(lines) {
		return fmt.Errorf("machine: directory tracks %d lines but %d are resident", n, len(lines))
	}
	for _, l := range lines {
		for _, n := range m.dir.Holders(l) {
			var resident bool
			if int(n) < ncores {
				resident = m.l2[n].Contains(l)
			} else {
				resident = m.l3[int(n)-ncores].Contains(l)
			}
			if !resident {
				return fmt.Errorf("machine: directory says node %d holds line %d but no cache does", n, l)
			}
		}
		if o := m.dir.Owner(l); o != coherence.NoOwner && !m.dir.Holds(l, o) {
			return fmt.Errorf("machine: line %d owner %d is not a holder", l, o)
		}
	}
	return nil
}

// ResidencyReport describes where the bytes of one object currently live,
// for the Fig. 2 cache-contents reproduction.
type ResidencyReport struct {
	Object    *mem.Object
	L2Bytes   []int // per core
	L3Bytes   []int // per chip
	DRAMBytes int   // bytes resident nowhere on chip
}

// Residency computes a report for obj. Bytes resident in multiple caches
// are counted in each (that duplication is exactly what Fig. 2 shows).
func (m *Machine) Residency(obj *mem.Object) ResidencyReport {
	r := ResidencyReport{
		Object:  obj,
		L2Bytes: make([]int, m.cfg.NumCores()),
		L3Bytes: make([]int, m.cfg.Chips),
	}
	for i := range m.l2 {
		r.L2Bytes[i] = m.l2[i].ResidentBytesIn(obj.Span)
	}
	for i := range m.l3 {
		r.L3Bytes[i] = m.l3[i].ResidentBytesIn(obj.Span)
	}
	ls := m.lineSize
	first := cache.LineOf(obj.Base, ls)
	last := cache.LineOf(obj.End()-1, ls)
	for l := first; l <= last; l++ {
		if !m.dir.HasHolders(l) {
			r.DRAMBytes += ls
		}
	}
	return r
}

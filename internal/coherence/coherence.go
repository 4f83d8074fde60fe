// Package coherence implements the global cache-coherence directory of the
// simulated machine.
//
// Real AMD hardware of the paper's era located and invalidated lines with
// interconnect broadcasts; what matters to the scheduling experiments is
// not the protocol's message pattern but its *state*: which caches hold a
// copy of each line, and which (if any) holds it dirty. The directory
// tracks exactly that state, in a MESI-equivalent form:
//
//   - no holders                     → Invalid (line only in DRAM)
//   - one holder, not dirty          → Exclusive
//   - many holders, none dirty       → Shared
//   - one holder, dirty              → Modified
//
// Holders are "nodes": each core's private L1+L2 pair is one node, and each
// chip's shared L3 is another. The machine model keeps directory state in
// lockstep with cache contents; the invariant tests in internal/machine
// check that correspondence after every simulation.
//
// The directory sits on the simulator's access fast path — every miss
// probes it and every store acquires ownership through it — so entries
// live inline in an open-addressed hash table rather than behind the
// pointer-chasing map[Line]*state this package started with. An entry is
// 24 bytes: the line number, the first 64-bit word of the holder bitset,
// and the dirty owner. Probing is linear with backward-shift deletion, so
// lookups never cross tombstones and the common probe is one cache line of
// table.
//
// # Sharer-set width
//
// A holder set is a fixed-width bitset of NumWords() 64-bit words. On
// machines with at most 64 nodes — every configuration up to the paper's
// AMD16 and the 64-core presets — the whole set is the inline `holders`
// word and the directory runs exactly the single-word code it always has:
// holders == 0 doubles as the empty-slot marker and no extra storage
// exists. Wider machines (the 128/256-core NUMA presets) spill words 1..w
// into a flat side array indexed by slot, occupancy switches to an owner
// sentinel (a word-0-only marker cannot work when a line's only holder is
// node ≥ 64), and the fan-out paths iterate set words with
// popcount/trailing-zero scans. Callers on wide directories use the
// *Words APIs (CopyHolderWords, JoinWords, AcquireExclusiveWords) with
// caller-owned scratch so the hot paths stay allocation-free at 256 cores.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
)

// Node identifies a holder: cores are nodes [0, NumCores); chip L3s are
// nodes [NumCores, NumCores+Chips).
type Node int

// NoOwner marks a line with no dirty copy.
const NoOwner Node = -1

// MaxNodes is the widest machine the directory supports: an 8-word holder
// set covers the 256-core NUMA preset (256 cores + 32 chip L3s = 288
// nodes) with headroom. The bound is a sanity rail, not a design limit —
// the word array scales, but a machine this size should be a deliberate
// preset, not an accident.
const MaxNodes = 512

const (
	// ownerNone is NoOwner in an entry's compact owner field.
	ownerNone int16 = -1
	// ownerEmpty marks an empty slot in a wide (NumWords > 1) table, where
	// holders == 0 cannot mean "empty": a line held only by node ≥ 64 has
	// word 0 clear. Narrow tables never store it.
	ownerEmpty int16 = -2
)

// entry is the directory's record for one line, stored by value in the
// open-addressed table. In a narrow (one-word) table, holders == 0 doubles
// as the empty-slot marker: a tracked line always has at least one holder
// (the last RemoveSharer or InvalidateExcept deletes the entry), so no
// separate occupancy bit is needed and line 0 stays a valid key. In a wide
// table, owner == ownerEmpty marks the empty slot instead.
type entry struct {
	line    cache.Line
	holders uint64 // word 0 of the holder bitset
	owner   int16  // node holding the line dirty, ownerNone, or ownerEmpty
}

// dirInitialSlots is the starting table size. Runs at AMD16 scale track a
// few hundred thousand lines; the table doubles as needed.
const dirInitialSlots = 1024

// Directory tracks holders of every cached line in the machine.
type Directory struct {
	nodes   int
	nwords  int // 64-bit words per holder set
	extw    int // nwords-1: side-array words per slot (0 ⇒ narrow table)
	tab     []entry
	ext     []uint64 // slot i's holder words 1..nwords-1 at [i*extw, (i+1)*extw)
	mask    uint64   // len(tab)-1; len(tab) is a power of two
	count   int      // occupied slots
	maxLoad int      // grow when count reaches this (¾ of the table)
}

// NewDirectory creates a directory for a machine with the given total
// number of nodes (cores + chips). At most MaxNodes nodes are supported;
// construction of anything wider fails loudly here rather than silently
// aliasing holder bits.
func NewDirectory(nodes int) *Directory {
	if nodes <= 0 || nodes > MaxNodes {
		panic(fmt.Sprintf("coherence: %d nodes outside supported range [1,%d]", nodes, MaxNodes))
	}
	d := &Directory{
		nodes:  nodes,
		nwords: (nodes + 63) / 64,
	}
	d.extw = d.nwords - 1
	d.initTable(dirInitialSlots)
	return d
}

func (d *Directory) initTable(slots int) {
	d.tab = make([]entry, slots)
	d.mask = uint64(slots - 1)
	d.maxLoad = slots - slots/4
	d.count = 0
	if d.extw != 0 {
		d.ext = make([]uint64, slots*d.extw)
		for i := range d.tab {
			d.tab[i].owner = ownerEmpty
		}
	}
}

// Nodes returns the number of nodes the directory was built for.
func (d *Directory) Nodes() int { return d.nodes }

// NumWords returns the number of 64-bit words in one holder set. Callers
// size their scratch buffers for the *Words APIs with it.
func (d *Directory) NumWords() int { return d.nwords }

// TrackedLines returns how many lines currently have at least one holder.
func (d *Directory) TrackedLines() int { return d.count }

// Reset drops every entry while keeping the table's capacity, so a machine
// flushed between benchmark phases does not regrow the directory from
// scratch.
func (d *Directory) Reset() {
	clear(d.tab)
	d.count = 0
	if d.extw != 0 {
		clear(d.ext)
		for i := range d.tab {
			d.tab[i].owner = ownerEmpty
		}
	}
}

func (d *Directory) checkNode(n Node) {
	if n < 0 || int(n) >= d.nodes {
		panic(fmt.Sprintf("coherence: node %d outside [0,%d)", n, d.nodes))
	}
}

// panicNarrowOnly reports misuse of a single-word API on a wide directory;
// out of line so the hot callers stay free of allocating panic arguments.
func panicNarrowOnly(op string) {
	panic("coherence: " + op + " is single-word; use the *Words API on a >64-node directory")
}

// hashLine is the fmix64 finalizer: a full-avalanche hash so line numbers,
// which arrive with strong arithmetic structure (consecutive lines,
// chip-interleaved strides), spread over the table.
func hashLine(l cache.Line) uint64 {
	x := uint64(l)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// findSlot returns the table index of l's entry, or -1 when l is
// untracked. The narrow table checks occupancy on the inline holder word;
// the wide table on the owner sentinel.
//
//o2:hotpath
func (d *Directory) findSlot(l cache.Line) int {
	i := hashLine(l) & d.mask
	if d.extw == 0 {
		for {
			e := &d.tab[i]
			if e.holders == 0 {
				return -1
			}
			if e.line == l {
				return int(i)
			}
			i = (i + 1) & d.mask
		}
	}
	for {
		e := &d.tab[i]
		if e.owner == ownerEmpty {
			return -1
		}
		if e.line == l {
			return int(i)
		}
		i = (i + 1) & d.mask
	}
}

// find returns a pointer to l's entry, or nil when l is untracked.
//
//o2:hotpath
func (d *Directory) find(l cache.Line) *entry {
	if i := d.findSlot(l); i >= 0 {
		return &d.tab[i]
	}
	return nil
}

// ensureIdx returns the slot index of l's entry, claiming an empty slot
// when the line is untracked. In a narrow table the caller must set at
// least one holder bit before the next table operation (holders == 0 marks
// an empty slot); a wide table is occupied the moment the slot is claimed
// (owner leaves ownerEmpty), and the caller must still add a holder or the
// entry leaks.
//
//o2:hotpath
func (d *Directory) ensureIdx(l cache.Line) int {
	if d.count >= d.maxLoad {
		d.grow()
	}
	i := hashLine(l) & d.mask
	if d.extw == 0 {
		for {
			e := &d.tab[i]
			if e.holders == 0 {
				e.line = l
				e.owner = ownerNone
				d.count++
				return int(i)
			}
			if e.line == l {
				return int(i)
			}
			i = (i + 1) & d.mask
		}
	}
	for {
		e := &d.tab[i]
		if e.owner == ownerEmpty {
			e.line = l
			e.owner = ownerNone
			d.count++
			return int(i)
		}
		if e.line == l {
			return int(i)
		}
		i = (i + 1) & d.mask
	}
}

// ensure returns l's entry, claiming an empty slot when the line is
// untracked; see ensureIdx for the occupancy contract.
//
//o2:hotpath
func (d *Directory) ensure(l cache.Line) *entry {
	return &d.tab[d.ensureIdx(l)]
}

// occupied reports whether slot i holds a live entry.
func (d *Directory) occupied(i uint64) bool {
	if d.extw == 0 {
		return d.tab[i].holders != 0
	}
	return d.tab[i].owner != ownerEmpty
}

// extAt returns slot i's side words (wide tables only).
func (d *Directory) extAt(i uint64) []uint64 {
	return d.ext[i*uint64(d.extw) : (i+1)*uint64(d.extw)]
}

// clearSlot empties slot i, including its side words.
func (d *Directory) clearSlot(i uint64) {
	d.tab[i] = entry{}
	if d.extw != 0 {
		d.tab[i].owner = ownerEmpty
		clear(d.extAt(i))
	}
}

// empty reports whether the whole holder set of slot i is zero.
func (d *Directory) empty(i uint64) bool {
	if d.tab[i].holders != 0 {
		return false
	}
	if d.extw != 0 {
		for _, w := range d.extAt(i) {
			if w != 0 {
				return false
			}
		}
	}
	return true
}

func (d *Directory) grow() {
	old := d.tab
	oldExt := d.ext
	oldExtw := uint64(d.extw)
	d.initTable(len(old) * 2)
	for i := range old {
		if oldExtw == 0 {
			if old[i].holders == 0 {
				continue
			}
		} else if old[i].owner == ownerEmpty {
			continue
		}
		j := hashLine(old[i].line) & d.mask
		for d.occupied(j) {
			j = (j + 1) & d.mask
		}
		d.tab[j] = old[i]
		if oldExtw != 0 {
			copy(d.extAt(j), oldExt[uint64(i)*oldExtw:(uint64(i)+1)*oldExtw])
		}
		d.count++
	}
}

// deleteAt removes the entry at slot i, backward-shifting any displaced
// entries in its probe run so later probes never traverse tombstones
// (Knuth vol. 3, algorithm R). Side words shift with their entries.
func (d *Directory) deleteAt(i uint64) {
	d.count--
	j := i
	for {
		j = (j + 1) & d.mask
		if !d.occupied(j) {
			break
		}
		e := d.tab[j]
		k := hashLine(e.line) & d.mask
		// Shift e back into the hole when its home slot k precedes the
		// hole cyclically — i.e. the hole sits inside e's probe path.
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			d.tab[i] = e
			if d.extw != 0 {
				copy(d.extAt(i), d.extAt(j))
			}
			i = j
		}
	}
	d.clearSlot(i)
}

// wordBit splits a node into its set-word index and bit.
func wordBit(n Node) (w int, bit uint64) {
	return int(n) >> 6, 1 << (uint(n) & 63)
}

// setBit sets node n's bit in slot i's holder set.
func (d *Directory) setBit(i int, n Node) {
	w, bit := wordBit(n)
	if w == 0 {
		d.tab[i].holders |= bit
	} else {
		d.ext[i*d.extw+w-1] |= bit
	}
}

// clearBit clears node n's bit in slot i's holder set and reports whether
// the bit was set.
func (d *Directory) clearBit(i int, n Node) bool {
	w, bit := wordBit(n)
	var p *uint64
	if w == 0 {
		p = &d.tab[i].holders
	} else {
		p = &d.ext[i*d.extw+w-1]
	}
	was := *p&bit != 0
	*p &^= bit
	return was
}

// hasBit reports whether node n holds the line at slot i.
func (d *Directory) hasBit(i int, n Node) bool {
	w, bit := wordBit(n)
	if w == 0 {
		return d.tab[i].holders&bit != 0
	}
	return d.ext[i*d.extw+w-1]&bit != 0
}

// AddSharer records that node now holds a clean copy of line.
func (d *Directory) AddSharer(l cache.Line, n Node) {
	d.checkNode(n)
	if d.extw == 0 {
		d.ensure(l).holders |= 1 << uint(n)
		return
	}
	d.setBit(d.ensureIdx(l), n)
}

// SetOwner records that node holds line dirty (Modified). Any previous
// owner mark is replaced; the node is also recorded as a holder.
func (d *Directory) SetOwner(l cache.Line, n Node) {
	d.checkNode(n)
	i := d.ensureIdx(l)
	d.setBit(i, n)
	d.tab[i].owner = int16(n)
}

// RemoveSharer records that node no longer holds line (eviction or
// invalidation). When the last holder disappears the entry is dropped —
// the line lives only in DRAM.
func (d *Directory) RemoveSharer(l cache.Line, n Node) {
	d.checkNode(n)
	i := d.findSlot(l)
	if i < 0 {
		return
	}
	d.clearBit(i, n)
	if d.tab[i].owner == int16(n) {
		d.tab[i].owner = ownerNone
	}
	if d.empty(uint64(i)) {
		d.deleteAt(uint64(i))
	}
}

// MoveSharer transfers a holder bit from one node to another in one step
// (an L2 victim moving into the chip's L3). Dirty ownership moves with it.
// It reports whether to already held the line: the machine model's spill
// path then knows the L3 has the victim resident and skips the insertion
// scan only in the other case.
func (d *Directory) MoveSharer(l cache.Line, from, to Node) (held bool) {
	d.checkNode(from)
	d.checkNode(to)
	i := d.findSlot(l)
	if i < 0 {
		// Nothing to move; treat as a plain add so callers need not
		// special-case races between eviction paths.
		d.AddSharer(l, to)
		return false
	}
	held = d.hasBit(i, to)
	if !d.hasBit(i, from) {
		d.setBit(i, to)
		return held
	}
	wasOwner := d.tab[i].owner == int16(from)
	d.clearBit(i, from)
	d.setBit(i, to)
	if wasOwner {
		d.tab[i].owner = int16(to)
	}
	return held
}

// JoinMask records n as a clean holder of line and returns the holder
// mask from before the join, in one table probe. It is the L2-miss fill's
// only directory access: the returned set says whether the chip's L3 holds
// the line and, if not, which cache is the nearest source, while the join
// records the requester's new copy. Narrow directories only; the wide
// fill path is JoinWords.
//
//o2:hotpath
func (d *Directory) JoinMask(l cache.Line, n Node) (prev uint64) {
	if d.extw != 0 {
		panicNarrowOnly("JoinMask")
	}
	d.checkNode(n)
	e := d.ensure(l)
	prev = e.holders
	e.holders = prev | 1<<uint(n)
	return prev
}

// JoinWords is JoinMask at any width: it records n as a clean holder of
// line, writes the holder set from before the join into prev (which must
// have at least NumWords elements, fully overwritten), and reports whether
// that set was non-empty. prev is caller-owned scratch; the call
// allocates nothing.
//
//o2:hotpath
func (d *Directory) JoinWords(l cache.Line, n Node, prev []uint64) bool {
	d.checkNode(n)
	i := d.ensureIdx(l)
	prev[0] = d.tab[i].holders
	any := prev[0] != 0
	for w := 0; w < d.extw; w++ {
		x := d.ext[i*d.extw+w]
		prev[w+1] = x
		any = any || x != 0
	}
	d.setBit(i, n)
	return any
}

// Holders returns the nodes holding line, in ascending order. The result
// is freshly allocated; the hot paths use HolderMask or CopyHolderWords
// instead.
func (d *Directory) Holders(l cache.Line) []Node {
	i := d.findSlot(l)
	if i < 0 {
		return nil
	}
	out := make([]Node, 0, d.sharerCountAt(i))
	out = d.appendWord(out, d.tab[i].holders, 0)
	for w := 0; w < d.extw; w++ {
		out = d.appendWord(out, d.ext[i*d.extw+w], (w+1)*64)
	}
	return out
}

func (d *Directory) appendWord(dst []Node, m uint64, base int) []Node {
	for m != 0 {
		n := bits.TrailingZeros64(m)
		dst = append(dst, Node(base+n))
		m &^= 1 << uint(n)
	}
	return dst
}

// HolderMask returns the raw holder bitmask (hot path for the machine
// model on ≤64-node directories; avoids allocation). Wide directories must
// use CopyHolderWords — a single word cannot represent their holder sets.
//
//o2:hotpath
func (d *Directory) HolderMask(l cache.Line) uint64 {
	if d.extw != 0 {
		panicNarrowOnly("HolderMask")
	}
	e := d.find(l)
	if e == nil {
		return 0
	}
	return e.holders
}

// CopyHolderWords copies line's holder set into dst, which must have at
// least NumWords elements, and reports whether the line has any holder.
// dst[:NumWords] is fully overwritten. This is the wide-directory sibling
// of HolderMask: callers pass preallocated scratch so the fan-out paths
// allocate nothing.
//
//o2:hotpath
func (d *Directory) CopyHolderWords(l cache.Line, dst []uint64) bool {
	i := d.findSlot(l)
	if i < 0 {
		for w := 0; w < d.nwords; w++ {
			dst[w] = 0
		}
		return false
	}
	dst[0] = d.tab[i].holders
	any := dst[0] != 0
	for w := 0; w < d.extw; w++ {
		x := d.ext[i*d.extw+w]
		dst[w+1] = x
		any = any || x != 0
	}
	return any
}

// HasHolders reports whether any node holds line. Unlike HolderMask it is
// valid at every directory width.
//
//o2:hotpath
func (d *Directory) HasHolders(l cache.Line) bool {
	return d.findSlot(l) >= 0
}

// Holds reports whether node holds line.
func (d *Directory) Holds(l cache.Line, n Node) bool {
	d.checkNode(n)
	i := d.findSlot(l)
	return i >= 0 && d.hasBit(i, n)
}

// Owner returns the node holding line dirty, or NoOwner.
func (d *Directory) Owner(l cache.Line) Node {
	e := d.find(l)
	if e == nil {
		return NoOwner
	}
	return Node(e.owner)
}

// AcquireExclusive makes keep the sole holder and dirty owner of line in a
// single table probe — InvalidateExcept followed by SetOwner, fused for
// the store path — and returns the bitmask of nodes that lost their
// copies. The common case (keep already the sole owner) touches one entry
// and allocates nothing. Narrow directories only; the wide store path is
// AcquireExclusiveWords.
//
//o2:hotpath
func (d *Directory) AcquireExclusive(l cache.Line, keep Node) (invalidated uint64) {
	if d.extw != 0 {
		panicNarrowOnly("AcquireExclusive")
	}
	d.checkNode(keep)
	e := d.ensure(l)
	invalidated = e.holders &^ (1 << uint(keep))
	e.holders = 1 << uint(keep)
	e.owner = int16(keep)
	return invalidated
}

// AcquireExclusiveWords is AcquireExclusive at any width: it makes keep
// the sole holder and dirty owner of line, writes the invalidated holder
// words into inv (which must have at least NumWords elements, fully
// overwritten), and reports whether any node was invalidated. inv is
// caller-owned scratch; the call allocates nothing.
//
//o2:hotpath
func (d *Directory) AcquireExclusiveWords(l cache.Line, keep Node, inv []uint64) bool {
	d.checkNode(keep)
	i := d.ensureIdx(l)
	kw, kbit := wordBit(keep)
	e := &d.tab[i]
	w0 := e.holders
	if kw == 0 {
		w0 &^= kbit
		e.holders = kbit
	} else {
		e.holders = 0
	}
	inv[0] = w0
	any := w0 != 0
	for w := 0; w < d.extw; w++ {
		x := d.ext[i*d.extw+w]
		if w+1 == kw {
			x &^= kbit
			d.ext[i*d.extw+w] = kbit
		} else {
			d.ext[i*d.extw+w] = 0
		}
		inv[w+1] = x
		any = any || x != 0
	}
	e.owner = int16(keep)
	return any
}

// InvalidateExcept removes every holder of line other than keep and returns
// the nodes that were invalidated, in ascending order. It implements the
// write path: a store must make the writer the sole holder.
func (d *Directory) InvalidateExcept(l cache.Line, keep Node) []Node {
	d.checkNode(keep)
	i := d.findSlot(l)
	if i < 0 {
		return nil
	}
	kw, kbit := wordBit(keep)
	var out []Node
	w0 := d.tab[i].holders
	keepMask0 := uint64(0)
	if kw == 0 {
		keepMask0 = w0 & kbit
	}
	out = d.appendWord(out, w0&^keepMask0, 0)
	d.tab[i].holders = keepMask0
	for w := 0; w < d.extw; w++ {
		x := d.ext[i*d.extw+w]
		keepMask := uint64(0)
		if w+1 == kw {
			keepMask = x & kbit
		}
		out = d.appendWord(out, x&^keepMask, (w+1)*64)
		d.ext[i*d.extw+w] = keepMask
	}
	if d.tab[i].owner != int16(keep) {
		d.tab[i].owner = ownerNone
	}
	if d.empty(uint64(i)) {
		d.deleteAt(uint64(i))
	}
	return out
}

// SharerCount returns the number of holders of line.
func (d *Directory) SharerCount(l cache.Line) int {
	i := d.findSlot(l)
	if i < 0 {
		return 0
	}
	return d.sharerCountAt(i)
}

func (d *Directory) sharerCountAt(i int) int {
	n := bits.OnesCount64(d.tab[i].holders)
	for w := 0; w < d.extw; w++ {
		n += bits.OnesCount64(d.ext[i*d.extw+w])
	}
	return n
}

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
// The directory sits on the simulator's access fast path — every L2 miss
// joins through it and every store acquires ownership through it — so a
// probe is one indexed load. Every simulated line lies inside the
// machine's memory image, so the line number itself is the slot: line l's
// holder set is the NumWords() words at l*NumWords() of one flat array,
// and its dirty owner is a parallel int16 stored as node+1, so the zero
// value means clean and a fresh or cleared table needs no sentinel. The
// table grows by doubling to cover the highest line recorded, up to
// MaxLines; a line beyond its end has no holders. There is no hashing,
// probing or deletion: a line whose last holder leaves keeps an all-zero
// set.
//
// # Sharer-set width
//
// A holder set is a fixed-width bitset of NumWords() 64-bit words, sized
// from the node count at construction: one word up to 64 nodes (every
// configuration up to the paper's AMD16 and the 64-core presets), five
// for the 256-core NUMA preset's 288 nodes. Every width runs the same
// code. The fan-out APIs (CopyHolderWords, JoinWords,
// AcquireExclusiveWords) write holder sets into caller-owned scratch, so
// the hot paths stay allocation-free at 256 cores. HolderMask, JoinMask
// and AcquireExclusive are their one-word forms, which return the set as
// a bitmask; they panic on a wider directory. The machine's fill and
// store paths use them on ≤64-node machines because BenchmarkL2MissFill
// measures them faster than the word forms there.
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

// MaxLines bounds the line numbers the directory records: 2^24 lines is a
// 1 GiB memory image at 64-byte lines. The table grows to cover the
// highest line recorded, so a stray line number must stop here rather
// than grow it to gigabytes.
const MaxLines = 1 << 24

const (
	panicLineBeyondMax = "coherence: line number at or beyond MaxLines"
	panicOneWordOnly   = "coherence: one-word API on a >64-node directory; use the *Words API"
)

// Directory tracks holders of every cached line in the machine.
type Directory struct {
	nodes  int
	nwords int      // 64-bit words per holder set
	words  []uint64 // line l's holder set at [l*nwords, (l+1)*nwords)
	owner  []int16  // line l's dirty owner + 1; 0 means clean
	count  int      // lines with at least one holder
}

// NewDirectory creates a directory for a machine with the given total
// number of nodes (cores + chips). At most MaxNodes nodes are supported;
// construction of anything wider fails loudly here rather than silently
// aliasing holder bits.
func NewDirectory(nodes int) *Directory {
	if nodes <= 0 || nodes > MaxNodes {
		panic(fmt.Sprintf("coherence: %d nodes outside supported range [1,%d]", nodes, MaxNodes))
	}
	return &Directory{nodes: nodes, nwords: (nodes + 63) / 64}
}

// Nodes returns the number of nodes the directory was built for.
func (d *Directory) Nodes() int { return d.nodes }

// NumWords returns the number of 64-bit words in one holder set. Callers
// size their scratch buffers for the *Words APIs with it.
func (d *Directory) NumWords() int { return d.nwords }

// TrackedLines returns how many lines currently have at least one holder.
func (d *Directory) TrackedLines() int { return d.count }

// Reset drops every holder and owner while keeping the table's capacity,
// so a machine flushed between benchmark phases does not regrow the
// directory from scratch.
func (d *Directory) Reset() {
	clear(d.words)
	clear(d.owner)
	d.count = 0
}

func (d *Directory) checkNode(n Node) {
	if uint(n) >= uint(d.nodes) {
		panicNode(n, d.nodes)
	}
}

// panicNode is out of line so checkNode stays small enough to inline.
func panicNode(n Node, nodes int) {
	panic(fmt.Sprintf("coherence: node %d outside [0,%d)", n, nodes))
}

// cover grows the table, if needed, so that it covers line l.
//
//o2:hotpath
func (d *Directory) cover(l cache.Line) {
	if uint64(l) >= uint64(len(d.owner)) {
		d.grow(l)
	}
}

// set returns line l's holder words for writing, first growing the table
// to cover l.
//
//o2:hotpath
func (d *Directory) set(l cache.Line) []uint64 {
	d.cover(l)
	i := int(l) * d.nwords
	return d.words[i : i+d.nwords : i+d.nwords]
}

// get returns line l's holder words for reading, or nil when l lies
// beyond the table and so has no holders.
//
//o2:hotpath
func (d *Directory) get(l cache.Line) []uint64 {
	if uint64(l) >= uint64(len(d.owner)) {
		return nil
	}
	i := int(l) * d.nwords
	return d.words[i : i+d.nwords : i+d.nwords]
}

// grow doubles the table until it covers line l (at least to the next
// power of two above l), panicking for a line at or beyond MaxLines.
func (d *Directory) grow(l cache.Line) {
	if l >= MaxLines {
		panic(panicLineBeyondMax)
	}
	n := min(max(2*len(d.owner), 1<<bits.Len64(uint64(l))), MaxLines)
	words := make([]uint64, n*d.nwords)
	copy(words, d.words)
	owner := make([]int16, n)
	copy(owner, d.owner)
	d.words, d.owner = words, owner
}

// empty reports whether a holder set has no bit set.
func empty(hs []uint64) bool {
	for _, x := range hs {
		if x != 0 {
			return false
		}
	}
	return true
}

// wordBit splits a node into its set-word index and bit.
func wordBit(n Node) (w int, bit uint64) {
	return int(n) >> 6, 1 << (uint(n) & 63)
}

// join sets node n's bit in holder set hs, counting the line as tracked
// when the set was empty.
func (d *Directory) join(hs []uint64, n Node) {
	if empty(hs) {
		d.count++
	}
	w, bit := wordBit(n)
	hs[w] |= bit
}

// AddSharer records that node now holds a clean copy of line.
func (d *Directory) AddSharer(l cache.Line, n Node) {
	d.checkNode(n)
	d.join(d.set(l), n)
}

// SetOwner records that node holds line dirty (Modified). Any previous
// owner mark is replaced; the node is also recorded as a holder.
func (d *Directory) SetOwner(l cache.Line, n Node) {
	d.checkNode(n)
	d.join(d.set(l), n)
	d.owner[l] = int16(n) + 1
}

// RemoveSharer records that node no longer holds line (eviction or
// invalidation). When the last holder leaves, the line is untracked — it
// lives only in DRAM.
func (d *Directory) RemoveSharer(l cache.Line, n Node) {
	d.checkNode(n)
	hs := d.get(l)
	if hs == nil {
		return
	}
	w, bit := wordBit(n)
	if hs[w]&bit == 0 {
		return
	}
	hs[w] &^= bit
	if d.owner[l] == int16(n)+1 {
		d.owner[l] = 0
	}
	if empty(hs) {
		d.count--
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
	hs := d.set(l)
	fw, fbit := wordBit(from)
	tw, tbit := wordBit(to)
	held = hs[tw]&tbit != 0
	if hs[fw]&fbit == 0 {
		// Nothing to move; treat as a plain add so callers need not
		// special-case races between eviction paths.
		d.join(hs, to)
		return held
	}
	hs[fw] &^= fbit
	hs[tw] |= tbit
	if d.owner[l] == int16(from)+1 {
		d.owner[l] = int16(to) + 1
	}
	return held
}

// JoinWords records n as a clean holder of line, writes the holder set
// from before the join into prev (which must have at least NumWords
// elements, fully overwritten), and reports whether that set was
// non-empty. It is the L2-miss fill's only directory access: the returned
// set says whether the chip's L3 holds the line and, if not, which cache
// is the nearest source, while the join records the requester's new copy.
// prev is caller-owned scratch; the call allocates nothing.
//
//o2:hotpath
func (d *Directory) JoinWords(l cache.Line, n Node, prev []uint64) bool {
	d.checkNode(n)
	hs := d.set(l)
	held := false
	for w, x := range hs {
		prev[w] = x
		held = held || x != 0
	}
	if !held {
		d.count++
	}
	w, bit := wordBit(n)
	hs[w] |= bit
	return held
}

// JoinMask is JoinWords on a one-word (≤64-node) directory: it records n
// as a clean holder of line and returns the holder mask from before the
// join. It panics on a wider directory.
//
//o2:hotpath
func (d *Directory) JoinMask(l cache.Line, n Node) (prev uint64) {
	if d.nwords != 1 {
		panic(panicOneWordOnly)
	}
	d.checkNode(n)
	d.cover(l)
	prev = d.words[l]
	if prev == 0 {
		d.count++
	}
	d.words[l] = prev | 1<<uint(n)
	return prev
}

// Holders returns the nodes holding line, in ascending order. The result
// is freshly allocated; the hot paths use CopyHolderWords instead.
func (d *Directory) Holders(l cache.Line) []Node {
	hs := d.get(l)
	if empty(hs) {
		return nil
	}
	out := make([]Node, 0, sharerCount(hs))
	for w, x := range hs {
		out = appendWord(out, x, w*64)
	}
	return out
}

// appendWord appends the nodes of one holder word covering nodes
// [base, base+64), in ascending order.
func appendWord(dst []Node, m uint64, base int) []Node {
	for m != 0 {
		n := bits.TrailingZeros64(m)
		dst = append(dst, Node(base+n))
		m &^= 1 << uint(n)
	}
	return dst
}

// HolderMask returns line's holder set as one bitmask: CopyHolderWords
// on a one-word (≤64-node) directory. It panics on a wider one.
//
//o2:hotpath
func (d *Directory) HolderMask(l cache.Line) uint64 {
	if d.nwords != 1 {
		panic(panicOneWordOnly)
	}
	if uint64(l) >= uint64(len(d.owner)) {
		return 0
	}
	return d.words[l]
}

// CopyHolderWords copies line's holder set into dst, which must have at
// least NumWords elements, and reports whether the line has any holder.
// dst[:NumWords] is fully overwritten; callers pass preallocated scratch
// so the fan-out paths allocate nothing.
//
//o2:hotpath
func (d *Directory) CopyHolderWords(l cache.Line, dst []uint64) bool {
	hs := d.get(l)
	if hs == nil {
		clear(dst[:d.nwords])
		return false
	}
	copy(dst, hs)
	return !empty(hs)
}

// HasHolders reports whether any node holds line.
//
//o2:hotpath
func (d *Directory) HasHolders(l cache.Line) bool {
	return !empty(d.get(l))
}

// Holds reports whether node holds line.
func (d *Directory) Holds(l cache.Line, n Node) bool {
	d.checkNode(n)
	hs := d.get(l)
	if hs == nil {
		return false
	}
	w, bit := wordBit(n)
	return hs[w]&bit != 0
}

// Owner returns the node holding line dirty, or NoOwner.
func (d *Directory) Owner(l cache.Line) Node {
	if uint64(l) >= uint64(len(d.owner)) {
		return NoOwner
	}
	return Node(d.owner[l]) - 1
}

// AcquireExclusive is AcquireExclusiveWords on a one-word (≤64-node)
// directory: it makes keep the sole holder and dirty owner of line and
// returns the mask of nodes that lost their copies. It panics on a wider
// directory.
//
//o2:hotpath
func (d *Directory) AcquireExclusive(l cache.Line, keep Node) (invalidated uint64) {
	if d.nwords != 1 {
		panic(panicOneWordOnly)
	}
	d.checkNode(keep)
	d.cover(l)
	prev := d.words[l]
	if prev == 0 {
		d.count++
	}
	d.words[l] = 1 << uint(keep)
	d.owner[l] = int16(keep) + 1
	return prev &^ (1 << uint(keep))
}

// AcquireExclusiveWords makes keep the sole holder and dirty owner of
// line — InvalidateExcept followed by SetOwner, fused for the store path —
// writes the invalidated holder set into inv (which must have at least
// NumWords elements, fully overwritten), and reports whether any node was
// invalidated. inv is caller-owned scratch; the call allocates nothing.
//
//o2:hotpath
func (d *Directory) AcquireExclusiveWords(l cache.Line, keep Node, inv []uint64) bool {
	d.checkNode(keep)
	hs := d.set(l)
	kw, kbit := wordBit(keep)
	held, others := false, false
	for w, x := range hs {
		held = held || x != 0
		if w == kw {
			x &^= kbit
		}
		inv[w] = x
		others = others || x != 0
		hs[w] = 0
	}
	hs[kw] = kbit
	if !held {
		d.count++
	}
	d.owner[l] = int16(keep) + 1
	return others
}

// InvalidateExcept removes every holder of line other than keep and returns
// the nodes that were invalidated, in ascending order. It implements the
// write path: a store must make the writer the sole holder.
func (d *Directory) InvalidateExcept(l cache.Line, keep Node) []Node {
	d.checkNode(keep)
	hs := d.get(l)
	if empty(hs) {
		return nil
	}
	kw, kbit := wordBit(keep)
	var out []Node
	for w, x := range hs {
		var k uint64
		if w == kw {
			k = x & kbit
		}
		out = appendWord(out, x&^k, w*64)
		hs[w] = k
	}
	if d.owner[l] != int16(keep)+1 {
		d.owner[l] = 0
	}
	if empty(hs) {
		d.count--
	}
	return out
}

// SharerCount returns the number of holders of line.
func (d *Directory) SharerCount(l cache.Line) int {
	return sharerCount(d.get(l))
}

func sharerCount(hs []uint64) int {
	n := 0
	for _, x := range hs {
		n += bits.OnesCount64(x)
	}
	return n
}

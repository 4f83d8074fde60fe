package coherence

import (
	"math/bits"
	"testing"

	"repro/internal/cache"
	"repro/internal/stats"
)

// These tests pin the directory's observable semantics ahead of (and
// through) the open-addressed table rewrite: any change to sharer
// bookkeeping, invalidation fan-out, dirty-owner transfer, or replicated
// read-only lines shows up here before it can disturb simulation results.

// dirOp is one scripted directory operation for the table-driven tests.
type dirOp struct {
	op   string // "add", "join", "own", "remove", "move", "invalidate"
	line cache.Line
	node Node
	to   Node // move only
}

func applyOps(t *testing.T, d *Directory, ops []dirOp) {
	t.Helper()
	for _, o := range ops {
		switch o.op {
		case "add":
			d.AddSharer(o.line, o.node)
		case "join":
			d.JoinMask(o.line, o.node)
		case "own":
			d.SetOwner(o.line, o.node)
		case "remove":
			d.RemoveSharer(o.line, o.node)
		case "move":
			d.MoveSharer(o.line, o.node, o.to)
		case "invalidate":
			d.InvalidateExcept(o.line, o.node)
		default:
			t.Fatalf("unknown op %q", o.op)
		}
	}
}

func TestSharerAddRemoveTable(t *testing.T) {
	cases := []struct {
		name    string
		ops     []dirOp
		line    cache.Line
		holders []Node
		owner   Node
		tracked int
	}{
		{
			name: "single clean holder",
			ops:  []dirOp{{op: "add", line: 5, node: 2}},
			line: 5, holders: []Node{2}, owner: NoOwner, tracked: 1,
		},
		{
			name: "add is idempotent",
			ops: []dirOp{
				{op: "add", line: 5, node: 2},
				{op: "add", line: 5, node: 2},
			},
			line: 5, holders: []Node{2}, owner: NoOwner, tracked: 1,
		},
		{
			name: "many holders accumulate",
			ops: []dirOp{
				{op: "add", line: 9, node: 0},
				{op: "add", line: 9, node: 7},
				{op: "add", line: 9, node: 3},
			},
			line: 9, holders: []Node{0, 3, 7}, owner: NoOwner, tracked: 1,
		},
		{
			name: "remove middle holder keeps the rest",
			ops: []dirOp{
				{op: "add", line: 9, node: 0},
				{op: "add", line: 9, node: 3},
				{op: "add", line: 9, node: 7},
				{op: "remove", line: 9, node: 3},
			},
			line: 9, holders: []Node{0, 7}, owner: NoOwner, tracked: 1,
		},
		{
			name: "last removal drops the entry",
			ops: []dirOp{
				{op: "add", line: 1, node: 4},
				{op: "remove", line: 1, node: 4},
			},
			line: 1, holders: nil, owner: NoOwner, tracked: 0,
		},
		{
			name: "remove on untracked line is a no-op",
			ops:  []dirOp{{op: "remove", line: 2, node: 1}},
			line: 2, holders: nil, owner: NoOwner, tracked: 0,
		},
		{
			name: "owner removal clears ownership but not other holders",
			ops: []dirOp{
				{op: "add", line: 6, node: 1},
				{op: "own", line: 6, node: 2},
				{op: "remove", line: 6, node: 2},
			},
			line: 6, holders: []Node{1}, owner: NoOwner, tracked: 1,
		},
		{
			name: "join on an untracked line creates a clean entry",
			ops:  []dirOp{{op: "join", line: 4, node: 3}},
			line: 4, holders: []Node{3}, owner: NoOwner, tracked: 1,
		},
		{
			name: "join adds a holder and keeps the dirty owner",
			ops: []dirOp{
				{op: "own", line: 4, node: 2},
				{op: "join", line: 4, node: 5},
			},
			line: 4, holders: []Node{2, 5}, owner: 2, tracked: 1,
		},
		{
			name: "line zero is a valid tracked line",
			ops:  []dirOp{{op: "own", line: 0, node: 0}},
			line: 0, holders: []Node{0}, owner: 0, tracked: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDirectory(8)
			applyOps(t, d, tc.ops)
			checkLine(t, d, tc.line, tc.holders, tc.owner)
			if got := d.TrackedLines(); got != tc.tracked {
				t.Errorf("TrackedLines = %d, want %d", got, tc.tracked)
			}
		})
	}
}

func TestInvalidationFanOutTable(t *testing.T) {
	cases := []struct {
		name        string
		setup       []dirOp
		keep        Node
		invalidated []Node // must be ascending: machine applies them in order
		holders     []Node
		owner       Node
		tracked     int
	}{
		{
			name: "writer among many sharers keeps only itself",
			setup: []dirOp{
				{op: "add", line: 3, node: 0},
				{op: "add", line: 3, node: 2},
				{op: "add", line: 3, node: 5},
				{op: "add", line: 3, node: 7},
			},
			keep: 2, invalidated: []Node{0, 5, 7}, holders: []Node{2}, owner: NoOwner, tracked: 1,
		},
		{
			name: "sole holder invalidates nobody",
			setup: []dirOp{
				{op: "add", line: 3, node: 4},
			},
			keep: 4, invalidated: nil, holders: []Node{4}, owner: NoOwner, tracked: 1,
		},
		{
			name: "dirty owner elsewhere is invalidated and ownership cleared",
			setup: []dirOp{
				{op: "add", line: 3, node: 1},
				{op: "own", line: 3, node: 6},
			},
			keep: 1, invalidated: []Node{6}, holders: []Node{1}, owner: NoOwner, tracked: 1,
		},
		{
			name: "keep node already the owner retains ownership",
			setup: []dirOp{
				{op: "add", line: 3, node: 1},
				{op: "own", line: 3, node: 2},
			},
			keep: 2, invalidated: []Node{1}, holders: []Node{2}, owner: 2, tracked: 1,
		},
		{
			name: "non-holder keep drops the line entirely",
			setup: []dirOp{
				{op: "add", line: 3, node: 0},
				{op: "add", line: 3, node: 1},
			},
			keep: 5, invalidated: []Node{0, 1}, holders: nil, owner: NoOwner, tracked: 0,
		},
		{
			name:  "untracked line invalidates nobody",
			setup: nil,
			keep:  0, invalidated: nil, holders: nil, owner: NoOwner, tracked: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDirectory(8)
			applyOps(t, d, tc.setup)
			got := d.InvalidateExcept(3, tc.keep)
			if len(got) != len(tc.invalidated) {
				t.Fatalf("invalidated %v, want %v", got, tc.invalidated)
			}
			for i := range got {
				if got[i] != tc.invalidated[i] {
					t.Fatalf("invalidated %v, want %v (order matters: fan-out applies in ascending node order)", got, tc.invalidated)
				}
			}
			checkLine(t, d, 3, tc.holders, tc.owner)
			if d.TrackedLines() != tc.tracked {
				t.Errorf("TrackedLines = %d, want %d", d.TrackedLines(), tc.tracked)
			}
		})
	}
}

// TestDirtyOwnerWritebackOrdering walks a dirty line through the exact
// sequence the machine model performs on eviction: the owning core's L2
// victim moves into the chip's L3 (ownership travels with it), and a later
// L3 eviction writes the line back to DRAM, dropping the entry. The
// intermediate states are what CheckInvariants depends on.
func TestDirtyOwnerWritebackOrdering(t *testing.T) {
	const (
		coreA  = Node(0)
		coreB  = Node(1)
		l3Node = Node(6) // chip L3 in a 4-core + 2-chip layout
	)
	d := NewDirectory(8)
	l := cache.Line(77)

	// Core A writes the line: dirty, sole holder.
	d.SetOwner(l, coreA)
	checkLine(t, d, l, []Node{coreA}, coreA)

	// Core B picks up a shared copy (MOESI: owner keeps the dirty line).
	d.AddSharer(l, coreB)
	checkLine(t, d, l, []Node{coreA, coreB}, coreA)

	// A's L2 evicts the victim into the chip's L3: ownership must move,
	// B's clean copy must survive.
	d.MoveSharer(l, coreA, l3Node)
	checkLine(t, d, l, []Node{coreB, l3Node}, l3Node)

	// B evicts silently (clean copy): the dirty L3 copy remains owner.
	d.RemoveSharer(l, coreB)
	checkLine(t, d, l, []Node{l3Node}, l3Node)

	// The L3 evicts: writeback to DRAM, entry dropped.
	d.RemoveSharer(l, l3Node)
	checkLine(t, d, l, nil, NoOwner)
	if d.TrackedLines() != 0 {
		t.Fatalf("TrackedLines = %d after writeback, want 0", d.TrackedLines())
	}
}

// TestReplicatedReadOnlyLines pins the shape the replication extension
// relies on: a line read by many nodes is Shared (many holders, no owner),
// counts every replica, and a single write collapses the replica set.
func TestReplicatedReadOnlyLines(t *testing.T) {
	d := NewDirectory(20) // AMD16 layout: 16 cores + 4 chip L3s
	l := cache.Line(123)
	replicas := []Node{0, 4, 8, 12, 16, 19}
	for _, n := range replicas {
		d.AddSharer(l, n)
	}
	if got := d.SharerCount(l); got != len(replicas) {
		t.Fatalf("SharerCount = %d, want %d", got, len(replicas))
	}
	if d.Owner(l) != NoOwner {
		t.Fatal("replicated read-only line must have no dirty owner")
	}
	checkLine(t, d, l, replicas, NoOwner)

	// A write from node 4 invalidates every other replica in one fan-out.
	inv := d.InvalidateExcept(l, 4)
	want := []Node{0, 8, 12, 16, 19}
	if len(inv) != len(want) {
		t.Fatalf("collapse invalidated %v, want %v", inv, want)
	}
	for i := range want {
		if inv[i] != want[i] {
			t.Fatalf("collapse invalidated %v, want %v", inv, want)
		}
	}
	d.SetOwner(l, 4)
	checkLine(t, d, l, []Node{4}, 4)
}

// TestDirectoryMatchesModel drives the directory and a map-based reference
// model through a long random schedule, checking the values JoinMask and
// MoveSharer return along the way, over enough distinct lines to force
// table growth and deletion-heavy churn, then checks full agreement. This
// is the heavyweight pin for the open-addressed rewrite.
func TestDirectoryMatchesModel(t *testing.T) {
	const (
		nodes  = 20
		nlines = 4096
		nops   = 200_000
	)
	type ref struct {
		holders uint64
		owner   Node
	}
	model := make(map[cache.Line]*ref)
	get := func(l cache.Line) *ref {
		r := model[l]
		if r == nil {
			r = &ref{owner: NoOwner}
			model[l] = r
		}
		return r
	}
	d := NewDirectory(nodes)
	rng := stats.NewRNG(0xC0FFEE)
	for i := 0; i < nops; i++ {
		l := cache.Line(rng.Intn(nlines))
		n := Node(rng.Intn(nodes))
		switch rng.Intn(7) {
		case 0, 1:
			d.AddSharer(l, n)
			get(l).holders |= 1 << uint(n)
		case 6:
			var want uint64
			if r := model[l]; r != nil {
				want = r.holders
			}
			if got := d.JoinMask(l, n); got != want {
				t.Fatalf("op %d: JoinMask(%d, %d) = %#x, model %#x", i, l, n, got, want)
			}
			get(l).holders |= 1 << uint(n)
		case 2:
			d.SetOwner(l, n)
			r := get(l)
			r.holders |= 1 << uint(n)
			r.owner = n
		case 3:
			d.RemoveSharer(l, n)
			if r := model[l]; r != nil {
				r.holders &^= 1 << uint(n)
				if r.owner == n {
					r.owner = NoOwner
				}
				if r.holders == 0 {
					delete(model, l)
				}
			}
		case 4:
			to := Node(rng.Intn(nodes))
			held := d.MoveSharer(l, n, to)
			r := model[l]
			if want := r != nil && r.holders&(1<<uint(to)) != 0; held != want {
				t.Fatalf("op %d: MoveSharer(%d, %d, %d) held = %v, model %v", i, l, n, to, held, want)
			}
			if r == nil || r.holders&(1<<uint(n)) == 0 {
				get(l).holders |= 1 << uint(to)
			} else {
				wasOwner := r.owner == n
				r.holders &^= 1 << uint(n)
				r.holders |= 1 << uint(to)
				if wasOwner {
					r.owner = to
				}
			}
		case 5:
			d.InvalidateExcept(l, n)
			if r := model[l]; r != nil {
				r.holders &= 1 << uint(n)
				if r.owner != n {
					r.owner = NoOwner
				}
				if r.holders == 0 {
					delete(model, l)
				}
			}
		}
	}

	if d.TrackedLines() != len(model) {
		t.Fatalf("TrackedLines = %d, model tracks %d", d.TrackedLines(), len(model))
	}
	for l, r := range model {
		if got := d.HolderMask(l); got != r.holders {
			t.Fatalf("line %d: HolderMask = %#x, model %#x", l, got, r.holders)
		}
		if got := d.Owner(l); got != r.owner {
			t.Fatalf("line %d: Owner = %d, model %d", l, got, r.owner)
		}
	}
	// And every line the directory claims not to track really is untracked.
	for l := cache.Line(0); l < nlines; l++ {
		if _, ok := model[l]; !ok && d.HolderMask(l) != 0 {
			t.Fatalf("line %d: directory tracks a line the model dropped", l)
		}
	}
}

// checkLine asserts holders (ascending), mask, count, and owner agree.
func checkLine(t *testing.T, d *Directory, l cache.Line, holders []Node, owner Node) {
	t.Helper()
	hs := d.Holders(l)
	if len(hs) != len(holders) {
		t.Fatalf("line %d: Holders = %v, want %v", l, hs, holders)
	}
	var mask uint64
	for i := range holders {
		if hs[i] != holders[i] {
			t.Fatalf("line %d: Holders = %v, want %v", l, hs, holders)
		}
		mask |= 1 << uint(holders[i])
	}
	if got := d.HolderMask(l); got != mask {
		t.Fatalf("line %d: HolderMask = %#x, want %#x", l, got, mask)
	}
	if got := d.SharerCount(l); got != bits.OnesCount64(mask) {
		t.Fatalf("line %d: SharerCount = %d, want %d", l, got, bits.OnesCount64(mask))
	}
	if got := d.Owner(l); got != owner {
		t.Fatalf("line %d: Owner = %d, want %d", l, got, owner)
	}
	for _, n := range holders {
		if !d.Holds(l, n) {
			t.Fatalf("line %d: Holds(%d) = false, want true", l, n)
		}
	}
}

package coherence

import (
	"math/bits"
	"testing"

	"repro/internal/cache"
	"repro/internal/stats"
)

// These tests pin the multi-word sharer-set extension: directories wider
// than 64 nodes must implement exactly the semantics the single-word table
// always had, and the narrow table must be bit-for-bit unaffected by the
// rewrite (the ≤64-node code path is the one every existing golden runs
// through).

// wideRef is the map-based reference model for a directory of any width.
type wideRef struct {
	holders map[Node]bool
	owner   Node
}

func newWideRef() *wideRef {
	return &wideRef{holders: make(map[Node]bool), owner: NoOwner}
}

// TestWideDirectoryMatchesModel drives a 288-node directory (the NUMA256
// machine's node count) and a reference model through a deletion-heavy
// random schedule, crossing table growth, then checks full agreement
// through every read API including the word-based ones.
func TestWideDirectoryMatchesModel(t *testing.T) {
	const (
		nodes  = 288
		nlines = 4096
		nops   = 200_000
	)
	model := make(map[cache.Line]*wideRef)
	get := func(l cache.Line) *wideRef {
		r := model[l]
		if r == nil {
			r = newWideRef()
			model[l] = r
		}
		return r
	}
	drop := func(l cache.Line) {
		if r := model[l]; r != nil && len(r.holders) == 0 {
			delete(model, l)
		}
	}
	d := NewDirectory(nodes)
	if d.NumWords() != 5 {
		t.Fatalf("NumWords = %d for %d nodes, want 5", d.NumWords(), nodes)
	}
	rng := stats.NewRNG(0xD1CE)
	inv := make([]uint64, d.NumWords())
	for i := 0; i < nops; i++ {
		l := cache.Line(rng.Intn(nlines))
		n := Node(rng.Intn(nodes))
		switch rng.Intn(8) {
		case 0, 1:
			d.AddSharer(l, n)
			get(l).holders[n] = true
		case 7:
			had := d.JoinWords(l, n, inv)
			r := get(l)
			if had != (len(r.holders) > 0) {
				t.Fatalf("op %d: JoinWords reports holders=%v, model has %d", i, had, len(r.holders))
			}
			for w, x := range inv {
				for b := 0; b < 64; b++ {
					if set := x&(1<<uint(b)) != 0; set != r.holders[Node(w*64+b)] {
						t.Fatalf("op %d: JoinWords word %d bit %d disagrees with the model", i, w, b)
					}
				}
			}
			r.holders[n] = true
		case 2:
			d.SetOwner(l, n)
			r := get(l)
			r.holders[n] = true
			r.owner = n
		case 3:
			d.RemoveSharer(l, n)
			if r := model[l]; r != nil {
				delete(r.holders, n)
				if r.owner == n {
					r.owner = NoOwner
				}
				drop(l)
			}
		case 4:
			to := Node(rng.Intn(nodes))
			held := d.MoveSharer(l, n, to)
			r := model[l]
			if want := r != nil && r.holders[to]; held != want {
				t.Fatalf("op %d: MoveSharer held = %v, model %v", i, held, want)
			}
			if r == nil || !r.holders[n] {
				get(l).holders[to] = true
			} else {
				wasOwner := r.owner == n
				delete(r.holders, n)
				r.holders[to] = true
				if wasOwner {
					r.owner = to
				}
			}
		case 5:
			d.InvalidateExcept(l, n)
			if r := model[l]; r != nil {
				kept := r.holders[n]
				clear(r.holders)
				if kept {
					r.holders[n] = true
				}
				if r.owner != n {
					r.owner = NoOwner
				}
				drop(l)
			}
		case 6:
			d.AcquireExclusiveWords(l, n, inv)
			r := get(l)
			clear(r.holders)
			r.holders[n] = true
			r.owner = n
		}
	}

	if d.TrackedLines() != len(model) {
		t.Fatalf("TrackedLines = %d, model tracks %d", d.TrackedLines(), len(model))
	}
	words := make([]uint64, d.NumWords())
	for l, r := range model {
		hs := d.Holders(l)
		if len(hs) != len(r.holders) {
			t.Fatalf("line %d: Holders = %v, model has %d holders", l, hs, len(r.holders))
		}
		for _, n := range hs {
			if !r.holders[n] {
				t.Fatalf("line %d: directory holder %d not in model", l, n)
			}
		}
		if got := d.Owner(l); got != r.owner {
			t.Fatalf("line %d: Owner = %d, model %d", l, got, r.owner)
		}
		if got := d.SharerCount(l); got != len(r.holders) {
			t.Fatalf("line %d: SharerCount = %d, model %d", l, got, len(r.holders))
		}
		if !d.CopyHolderWords(l, words) {
			t.Fatalf("line %d: CopyHolderWords reports no holders", l)
		}
		total := 0
		for w, x := range words {
			total += bits.OnesCount64(x)
			for x != 0 {
				b := bits.TrailingZeros64(x)
				x &^= 1 << uint(b)
				if n := Node(w*64 + b); !r.holders[n] {
					t.Fatalf("line %d: word %d claims holder %d not in model", l, w, n)
				}
			}
		}
		if total != len(r.holders) {
			t.Fatalf("line %d: words count %d holders, model %d", l, total, len(r.holders))
		}
		for n := range r.holders {
			if !d.Holds(l, n) {
				t.Fatalf("line %d: Holds(%d) = false, model true", l, n)
			}
		}
	}
	for l := cache.Line(0); l < nlines; l++ {
		if _, ok := model[l]; !ok && d.HasHolders(l) {
			t.Fatalf("line %d: directory tracks a line the model dropped", l)
		}
	}
}

// TestWideMatchesNarrow runs one random schedule over nodes < 64 against
// both a narrow (64-node) and a wide (80-node) directory and demands
// identical observable state throughout, including identical invalidation
// sets from the two store-path APIs, identical pre-join holder sets from
// JoinMask and JoinWords, and identical MoveSharer reports. This is the model-parity pin for the
// rewrite: configurations that fit one word must behave exactly as the
// single-word implementation did.
func TestWideMatchesNarrow(t *testing.T) {
	const (
		nodes  = 60
		nlines = 1024
		nops   = 100_000
	)
	narrow := NewDirectory(64)
	wide := NewDirectory(80)
	if narrow.NumWords() != 1 || wide.NumWords() != 2 {
		t.Fatalf("NumWords = %d/%d, want 1/2", narrow.NumWords(), wide.NumWords())
	}
	rng := stats.NewRNG(0xBEEF)
	inv := make([]uint64, wide.NumWords())
	for i := 0; i < nops; i++ {
		l := cache.Line(rng.Intn(nlines))
		n := Node(rng.Intn(nodes))
		switch rng.Intn(8) {
		case 0, 1:
			narrow.AddSharer(l, n)
			wide.AddSharer(l, n)
		case 7:
			mask := narrow.JoinMask(l, n)
			had := wide.JoinWords(l, n, inv)
			if mask != inv[0] || inv[1] != 0 || had != (mask != 0) {
				t.Fatalf("op %d: JoinMask %#x vs JoinWords [%#x %#x] had=%v", i, mask, inv[0], inv[1], had)
			}
		case 2:
			narrow.SetOwner(l, n)
			wide.SetOwner(l, n)
		case 3:
			narrow.RemoveSharer(l, n)
			wide.RemoveSharer(l, n)
		case 4:
			to := Node(rng.Intn(nodes))
			if a, b := narrow.MoveSharer(l, n, to), wide.MoveSharer(l, n, to); a != b {
				t.Fatalf("op %d: MoveSharer held %v vs %v", i, a, b)
			}
		case 5:
			a := narrow.InvalidateExcept(l, n)
			b := wide.InvalidateExcept(l, n)
			if len(a) != len(b) {
				t.Fatalf("op %d: InvalidateExcept %v vs %v", i, a, b)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("op %d: InvalidateExcept %v vs %v", i, a, b)
				}
			}
		case 6:
			mask := narrow.AcquireExclusive(l, n)
			wide.AcquireExclusiveWords(l, n, inv)
			if mask != inv[0] || inv[1] != 0 {
				t.Fatalf("op %d: AcquireExclusive %#x vs words [%#x %#x]", i, mask, inv[0], inv[1])
			}
		}
	}
	if narrow.TrackedLines() != wide.TrackedLines() {
		t.Fatalf("TrackedLines %d vs %d", narrow.TrackedLines(), wide.TrackedLines())
	}
	words := make([]uint64, wide.NumWords())
	for l := cache.Line(0); l < nlines; l++ {
		mask := narrow.HolderMask(l)
		any := wide.CopyHolderWords(l, words)
		if mask != words[0] || words[1] != 0 || any != (mask != 0) {
			t.Fatalf("line %d: mask %#x vs words [%#x %#x] any=%v", l, mask, words[0], words[1], any)
		}
		if narrow.Owner(l) != wide.Owner(l) {
			t.Fatalf("line %d: owner %d vs %d", l, narrow.Owner(l), wide.Owner(l))
		}
	}
}

// TestWideReset proves Reset restores a wide table to pristine state: the
// owner sentinels and side words must all be re-armed or later probes
// would resurrect stale holder bits.
func TestWideReset(t *testing.T) {
	d := NewDirectory(100)
	for i := 0; i < 5000; i++ {
		d.AddSharer(cache.Line(i), Node(i%100))
	}
	d.Reset()
	if d.TrackedLines() != 0 {
		t.Fatalf("TrackedLines = %d after Reset", d.TrackedLines())
	}
	for i := 0; i < 5000; i++ {
		if d.HasHolders(cache.Line(i)) {
			t.Fatalf("line %d still tracked after Reset", i)
		}
	}
	// The table must be immediately reusable with clean semantics.
	d.SetOwner(7, 99)
	if d.SharerCount(7) != 1 || d.Owner(7) != 99 {
		t.Fatal("Reset left the table unusable")
	}
}

// TestDirectoryNodeCap pins the construction guard: the widest supported
// machine builds, anything wider fails loudly instead of silently aliasing
// holder bits (the failure mode the pre-bitset 64-node cap guarded).
func TestDirectoryNodeCap(t *testing.T) {
	if d := NewDirectory(MaxNodes); d.NumWords() != MaxNodes/64 {
		t.Fatalf("NumWords = %d at MaxNodes, want %d", d.NumWords(), MaxNodes/64)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewDirectory(%d) accepted", MaxNodes+1)
		}
	}()
	NewDirectory(MaxNodes + 1)
}

// TestNarrowOnlyAPIsGuarded: the single-word APIs cannot represent a wide
// holder set; calling them on a wide directory must panic rather than
// silently truncate.
func TestNarrowOnlyAPIsGuarded(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(d *Directory)
	}{
		{"HolderMask", func(d *Directory) { d.HolderMask(1) }},
		{"AcquireExclusive", func(d *Directory) { d.AcquireExclusive(1, 0) }},
		{"JoinMask", func(d *Directory) { d.JoinMask(1, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDirectory(65)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a wide directory did not panic", tc.name)
				}
			}()
			tc.call(d)
		})
	}
}

package coherence

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/cache"
)

// FuzzDirectoryMatchesModel drives a directory of any width in [1,
// MaxNodes] nodes over a line range [lo, lo+span) through an arbitrary op
// sequence, checking every return value and the touched line's state
// against a map model after each op, and TrackedLines plus every line of
// the range at the end. Each op is seven bytes: the op code, the line
// offset, and two nodes (two bytes each). The line range, span and op
// count are capped so one input runs in about a tenth of a millisecond:
// the fuzzer minimizes every new input by re-running it once per
// candidate, and slow inputs would stall fuzzing for seconds each.
//
//	go test -run=NONE -fuzz=FuzzDirectoryMatchesModel ./internal/coherence
func FuzzDirectoryMatchesModel(f *testing.F) {
	// Seed op codes: 0 add, 1 own, 2 remove, 3 move, 4 invalidate,
	// 5 JoinWords, 6 AcquireExclusiveWords, 7 JoinMask, 8 AcquireExclusive.
	f.Add(uint16(20), uint32(0), uint16(64), encodeOps(
		[4]int{1, 5, 3, 0}, [4]int{3, 5, 3, 17}, [4]int{0, 5, 2, 0}, [4]int{4, 5, 17, 0},
		[4]int{7, 9, 2, 0}, [4]int{7, 9, 4, 0}, [4]int{8, 11, 4, 0}, [4]int{8, 9, 6, 0},
		[4]int{5, 12, 1, 0}, [4]int{6, 12, 7, 0}, [4]int{2, 9, 6, 0}, [4]int{3, 40, 1, 2},
		[4]int{2, 5, 2, 0}, [4]int{2, 12, 7, 0}, [4]int{0, 0, 19, 0}, [4]int{4, 0, 18, 0}))
	f.Add(uint16(288), uint32(100_000), uint16(4096), encodeOps(
		[4]int{1, 4000, 287, 0}, [4]int{3, 4000, 287, 64}, [4]int{5, 4000, 200, 0},
		[4]int{0, 4000, 63, 0}, [4]int{6, 4000, 130, 0}, [4]int{4, 4000, 7, 0},
		[4]int{5, 17, 256, 0}, [4]int{2, 17, 256, 0}, [4]int{3, 17, 0, 280}))
	f.Add(uint16(1), uint32(0), uint16(1), encodeOps(
		[4]int{7, 0, 0, 0}, [4]int{8, 0, 0, 0}, [4]int{2, 0, 0, 0}, [4]int{3, 0, 0, 0}))
	f.Add(uint16(65), uint32(1<<15), uint16(300), encodeOps(
		[4]int{0, 1, 64, 0}, [4]int{1, 1, 0, 0}, [4]int{3, 1, 0, 64}, [4]int{2, 1, 64, 0},
		[4]int{6, 299, 64, 0}, [4]int{4, 299, 0, 0}))
	f.Add(uint16(MaxNodes), uint32(3), uint16(9), encodeOps(
		[4]int{0, 1, 511, 0}, [4]int{5, 1, 0, 0}, [4]int{3, 1, 511, 510}, [4]int{6, 1, 510, 0}))
	f.Fuzz(func(t *testing.T, nodeArg uint16, loArg uint32, spanArg uint16, ops []byte) {
		nodes := 1 + int(nodeArg)%MaxNodes
		lo := cache.Line(loArg % (1 << 16))
		span := 1 + int(spanArg)%512
		ops = ops[:min(len(ops), 7*256)]
		d := NewDirectory(nodes)
		nw := d.NumWords()
		words := make([]uint64, nw)
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
		for i := 0; i+7 <= len(ops); i += 7 {
			op := ops[i]
			l := lo + cache.Line(int(ops[i+1])<<8|int(ops[i+2]))%cache.Line(span)
			n := Node((int(ops[i+3])<<8 | int(ops[i+4])) % nodes)
			to := Node((int(ops[i+5])<<8 | int(ops[i+6])) % nodes)
			switch op % 9 {
			case 0:
				d.AddSharer(l, n)
				get(l).holders[n] = true
			case 1:
				d.SetOwner(l, n)
				r := get(l)
				r.holders[n] = true
				r.owner = n
			case 2:
				d.RemoveSharer(l, n)
				if r := model[l]; r != nil {
					delete(r.holders, n)
					if r.owner == n {
						r.owner = NoOwner
					}
					drop(l)
				}
			case 3:
				held := d.MoveSharer(l, n, to)
				r := model[l]
				if want := r != nil && r.holders[to]; held != want {
					t.Fatalf("op %d: MoveSharer(%d, %d, %d) held = %v, model %v", i/7, l, n, to, held, want)
				}
				r = get(l)
				if r.holders[n] {
					delete(r.holders, n)
					if r.owner == n {
						r.owner = to
					}
				}
				r.holders[to] = true
			case 4:
				got := d.InvalidateExcept(l, n)
				var want []Node
				if r := model[l]; r != nil {
					for h := range r.holders {
						if h != n {
							want = append(want, h)
							delete(r.holders, h)
						}
					}
					if r.owner != n {
						r.owner = NoOwner
					}
					drop(l)
				}
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: InvalidateExcept(%d, %d) = %v, model %v", i/7, l, n, got, want)
				}
			case 5:
				held := d.JoinWords(l, n, words)
				checkWords(t, i/7, "JoinWords", words, held, model[l])
				get(l).holders[n] = true
			case 6:
				others := d.AcquireExclusiveWords(l, n, words)
				r := get(l)
				delete(r.holders, n)
				checkWords(t, i/7, "AcquireExclusiveWords", words, others, r)
				clear(r.holders)
				r.holders[n] = true
				r.owner = n
			case 7:
				if nw != 1 {
					continue
				}
				prev := d.JoinMask(l, n)
				words[0] = prev
				checkWords(t, i/7, "JoinMask", words, prev != 0, model[l])
				get(l).holders[n] = true
			case 8:
				if nw != 1 {
					continue
				}
				inv := d.AcquireExclusive(l, n)
				r := get(l)
				delete(r.holders, n)
				words[0] = inv
				checkWords(t, i/7, "AcquireExclusive", words, inv != 0, r)
				clear(r.holders)
				r.holders[n] = true
				r.owner = n
			}
			checkModelLine(t, d, l, model[l])
		}
		if d.TrackedLines() != len(model) {
			t.Fatalf("TrackedLines = %d, model tracks %d", d.TrackedLines(), len(model))
		}
		for l := lo; l < lo+cache.Line(span); l++ {
			checkModelLine(t, d, l, model[l])
		}
	})
}

// encodeOps packs {op, line offset, node, to-node} steps into the seven
// bytes per op FuzzDirectoryMatchesModel decodes.
func encodeOps(steps ...[4]int) []byte {
	var b []byte
	for _, s := range steps {
		b = append(b, byte(s[0]), byte(s[1]>>8), byte(s[1]), byte(s[2]>>8), byte(s[2]), byte(s[3]>>8), byte(s[3]))
	}
	return b
}

// checkWords asserts that a word-form holder set (and the flag reporting
// it non-empty) matches the model's holders; a nil model is the empty set.
func checkWords(t *testing.T, op int, api string, words []uint64, nonEmpty bool, r *wideRef) {
	t.Helper()
	total := 0
	for w, x := range words {
		total += bits.OnesCount64(x)
		for ; x != 0; x &= x - 1 {
			if n := Node(w*64 + bits.TrailingZeros64(x)); r == nil || !r.holders[n] {
				t.Fatalf("op %d: %s reports node %d, not in the model", op, api, n)
			}
		}
	}
	want := 0
	if r != nil {
		want = len(r.holders)
	}
	if total != want || nonEmpty != (want > 0) {
		t.Fatalf("op %d: %s reports %d nodes (non-empty %v), model %d", op, api, total, nonEmpty, want)
	}
}

// checkModelLine asserts every read API agrees with the model on line l;
// a nil model is an untracked line.
func checkModelLine(t *testing.T, d *Directory, l cache.Line, r *wideRef) {
	t.Helper()
	var want []Node
	owner := NoOwner
	if r != nil {
		for n := range r.holders {
			want = append(want, n)
		}
		slices.Sort(want)
		owner = r.owner
	}
	if got := d.Holders(l); !slices.Equal(got, want) {
		t.Fatalf("line %d: Holders = %v, model %v", l, got, want)
	}
	if got := d.Owner(l); got != owner {
		t.Fatalf("line %d: Owner = %d, model %d", l, got, owner)
	}
	if got := d.SharerCount(l); got != len(want) {
		t.Fatalf("line %d: SharerCount = %d, model %d", l, got, len(want))
	}
	if got := d.HasHolders(l); got != (len(want) > 0) {
		t.Fatalf("line %d: HasHolders = %v, model %d holders", l, got, len(want))
	}
	words := make([]uint64, d.NumWords())
	checkWords(t, -1, "CopyHolderWords", words, d.CopyHolderWords(l, words), r)
	if d.NumWords() == 1 && d.HolderMask(l) != words[0] {
		t.Fatalf("line %d: HolderMask = %#x, CopyHolderWords %#x", l, d.HolderMask(l), words[0])
	}
	for _, n := range want {
		if !d.Holds(l, n) {
			t.Fatalf("line %d: Holds(%d) = false, model true", l, n)
		}
	}
}

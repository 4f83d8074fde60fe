package coherence

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
)

func TestAddRemoveSharer(t *testing.T) {
	d := NewDirectory(8)
	l := cache.Line(42)
	d.AddSharer(l, 1)
	d.AddSharer(l, 3)
	if !d.Holds(l, 1) || !d.Holds(l, 3) || d.Holds(l, 2) {
		t.Fatal("holder bits wrong")
	}
	if got := d.SharerCount(l); got != 2 {
		t.Fatalf("SharerCount = %d, want 2", got)
	}
	d.RemoveSharer(l, 1)
	if d.Holds(l, 1) || !d.Holds(l, 3) {
		t.Fatal("RemoveSharer removed wrong node")
	}
	d.RemoveSharer(l, 3)
	if d.TrackedLines() != 0 {
		t.Fatal("line entry should be dropped when last holder leaves")
	}
}

func TestHoldersSorted(t *testing.T) {
	d := NewDirectory(16)
	l := cache.Line(7)
	for _, n := range []Node{9, 2, 14} {
		d.AddSharer(l, n)
	}
	hs := d.Holders(l)
	want := []Node{2, 9, 14}
	if len(hs) != 3 {
		t.Fatalf("Holders = %v", hs)
	}
	for i := range want {
		if hs[i] != want[i] {
			t.Fatalf("Holders = %v, want %v", hs, want)
		}
	}
}

func TestOwner(t *testing.T) {
	d := NewDirectory(8)
	l := cache.Line(1)
	if d.Owner(l) != NoOwner {
		t.Fatal("untracked line has an owner")
	}
	d.SetOwner(l, 5)
	if d.Owner(l) != 5 || !d.Holds(l, 5) {
		t.Fatal("SetOwner must record holder and owner")
	}
	d.RemoveSharer(l, 5)
	if d.Owner(l) != NoOwner {
		t.Fatal("owner survived removal")
	}
}

func TestInvalidateExcept(t *testing.T) {
	d := NewDirectory(8)
	l := cache.Line(9)
	for n := Node(0); n < 5; n++ {
		d.AddSharer(l, n)
	}
	d.SetOwner(l, 2)
	inv := d.InvalidateExcept(l, 3)
	if len(inv) != 4 {
		t.Fatalf("invalidated %v, want 4 nodes", inv)
	}
	for _, n := range inv {
		if n == 3 {
			t.Fatal("invalidated the kept node")
		}
		if d.Holds(l, n) {
			t.Fatalf("node %d still holds line after invalidation", n)
		}
	}
	if !d.Holds(l, 3) {
		t.Fatal("kept node lost the line")
	}
	if d.Owner(l) != NoOwner {
		t.Fatal("stale owner after invalidation (owner was node 2)")
	}
}

func TestInvalidateExceptNonHolder(t *testing.T) {
	d := NewDirectory(8)
	l := cache.Line(9)
	d.AddSharer(l, 1)
	inv := d.InvalidateExcept(l, 2) // 2 does not hold it
	if len(inv) != 1 || inv[0] != 1 {
		t.Fatalf("invalidated %v, want [1]", inv)
	}
	if d.TrackedLines() != 0 {
		t.Fatal("line should be dropped: keep node held nothing")
	}
}

func TestMoveSharer(t *testing.T) {
	d := NewDirectory(8)
	l := cache.Line(3)
	d.SetOwner(l, 1)
	if d.MoveSharer(l, 1, 6) {
		t.Fatal("MoveSharer reports the destination held a line it did not")
	}
	if d.Holds(l, 1) || !d.Holds(l, 6) {
		t.Fatal("MoveSharer holder bits wrong")
	}
	if d.Owner(l) != 6 {
		t.Fatal("dirty ownership must move with the line")
	}
}

// TestMoveSharerIntoHolder is the spill of a line the chip's L3 already
// holds: a second core on the chip evicting its copy. MoveSharer must
// report the destination held it so the machine skips the insert.
func TestMoveSharerIntoHolder(t *testing.T) {
	d := NewDirectory(8)
	l := cache.Line(3)
	d.AddSharer(l, 1)
	d.AddSharer(l, 6)
	if !d.MoveSharer(l, 1, 6) {
		t.Fatal("MoveSharer into an existing holder reported held = false")
	}
	if d.Holds(l, 1) || !d.Holds(l, 6) || d.SharerCount(l) != 1 {
		t.Fatalf("holders after move = %v, want [6]", d.Holders(l))
	}
}

func TestMoveSharerFromNonHolder(t *testing.T) {
	d := NewDirectory(8)
	l := cache.Line(3)
	d.MoveSharer(l, 1, 6) // 1 doesn't hold it: degrade to AddSharer
	if !d.Holds(l, 6) {
		t.Fatal("MoveSharer from non-holder should still add destination")
	}
}

func TestNodeRangeChecked(t *testing.T) {
	d := NewDirectory(4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range node accepted")
		}
	}()
	d.AddSharer(1, 4)
}

func TestDirectoryInvariants(t *testing.T) {
	// Property: after arbitrary operations, (a) the owner, when present,
	// is always also a holder; (b) holder sets match what Holders reports.
	const nodes = 8
	f := func(ops []uint32) bool {
		d := NewDirectory(nodes)
		for _, op := range ops {
			l := cache.Line(op % 16)
			n := Node(op / 16 % nodes)
			switch op % 5 {
			case 0, 1:
				d.AddSharer(l, n)
			case 2:
				d.SetOwner(l, n)
			case 3:
				d.RemoveSharer(l, n)
			case 4:
				d.InvalidateExcept(l, n)
			}
			if o := d.Owner(l); o != NoOwner && !d.Holds(l, o) {
				return false
			}
			mask := d.HolderMask(l)
			for _, h := range d.Holders(l) {
				if mask&(1<<uint(h)) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

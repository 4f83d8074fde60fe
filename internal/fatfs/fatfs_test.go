package fatfs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mem"
)

// newFS formats a 48 MB volume, room for the paper's largest benchmark
// point (≈20 MB of directory data plus metadata).
func newFS(t testing.TB) *FS {
	t.Helper()
	img := mem.NewImage(64 << 20)
	fs, err := Format(img, Config{TotalBytes: 48 << 20, SectorsPerCluster: 8, RootEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

var null = NullAccess{}

// fileName is the benchmark workloads' entry name.
func fileName(i int) string { return fmt.Sprintf("F%07d", i) }

// freeClusters counts free FAT cells without charging anything.
func freeClusters(fs *FS) int {
	n := 0
	for i := minCluster; i < fs.nclusters+minCluster; i++ {
		if fs.img.Read16(fs.fatAddr(i)) == fatFree {
			n++
		}
	}
	return n
}

// deleteSlot marks slot idx of d deleted (0xE5 in the name's first byte),
// as a FAT driver's unlink does.
func deleteSlot(t testing.TB, fs *FS, d Dir, idx int) {
	t.Helper()
	span, err := fs.Extent(d)
	if err != nil {
		t.Fatal(err)
	}
	fs.img.Bytes(span.Base+mem.Addr(idx*DirEntrySize), 1)[0] = 0xE5
}

// mkdirPopulated makes a directory of count entries named by fileName.
func mkdirPopulated(t testing.TB, fs *FS, parent Dir, name string, count int) Dir {
	t.Helper()
	d, err := fs.Mkdir(null, parent, name, count)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Populate(d, count, fileName); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFormatLayout(t *testing.T) {
	fs := newFS(t)
	if fs.nclusters < 1000 {
		t.Fatalf("only %d clusters in a 48 MB volume", fs.nclusters)
	}
	// Boot sector signature.
	sig := fs.img.Bytes(fs.base+510, 2)
	if sig[0] != 0x55 || sig[1] != 0xAA {
		t.Fatal("boot sector signature missing")
	}
	if free := freeClusters(fs); free != fs.nclusters {
		t.Fatalf("fresh volume has %d free of %d clusters", free, fs.nclusters)
	}
}

func TestFormatRejectsBadConfig(t *testing.T) {
	img := mem.NewImage(1 << 20)
	bad := []Config{
		{TotalBytes: 1 << 20, SectorsPerCluster: 3, RootEntries: 512}, // non-power-of-two
		{TotalBytes: 1 << 20, SectorsPerCluster: 8, RootEntries: 7},   // partial sector
		{TotalBytes: 10_000, SectorsPerCluster: 8, RootEntries: 512},  // too small
	}
	for i, cfg := range bad {
		if _, err := Format(img, cfg); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
}

func TestNameRoundTrip(t *testing.T) {
	cases := []string{"FILE.TXT", "A", "12345678.123", "NOEXT", "F0001.DAT"}
	for _, name := range cases {
		raw, err := EncodeName(name)
		if err != nil {
			t.Fatalf("EncodeName(%q): %v", name, err)
		}
		if got := DecodeName(raw); got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
	}
}

func TestEncodeNameLowercases(t *testing.T) {
	raw, err := EncodeName("file.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodeName(raw); got != "FILE.TXT" {
		t.Errorf("lowercase input became %q", got)
	}
}

func TestEncodeNameRejectsInvalid(t *testing.T) {
	bad := []string{"", "TOOLONGNAME.TXT", "X.LONG", "A/B.TXT", "SP ACE.T", ".EXT"}
	for _, name := range bad {
		if _, err := EncodeName(name); err == nil {
			t.Errorf("EncodeName(%q) accepted", name)
		}
	}
}

func TestLookupNotFound(t *testing.T) {
	fs := newFS(t)
	d := mkdirPopulated(t, fs, fs.Root(), "DIR0", 100)
	deleteSlot(t, fs, d, 40)
	for _, tc := range []struct {
		dir  Dir
		name string
	}{
		{fs.Root(), "NOPE.TXT"},
		{fs.Root(), fileName(0)}, // lives one level down
		{d, "NOPE.TXT"},
		{d, fileName(100)}, // one past the populated entries
		{d, fileName(40)},  // deleted
	} {
		_, err := fs.Lookup(null, tc.dir, tc.name)
		var nf ErrNotFound
		if !errors.As(err, &nf) || nf.Name != tc.name {
			t.Errorf("Lookup(%s) err = %v, want ErrNotFound", tc.name, err)
		}
	}
}

func TestMkdirDuplicateRejected(t *testing.T) {
	fs := newFS(t)
	d := mkdirPopulated(t, fs, fs.Root(), "X", 10)
	free := freeClusters(fs)
	if _, err := fs.Mkdir(null, fs.Root(), "X", 10); err == nil {
		t.Fatal("duplicate directory accepted")
	}
	// A populated file's name is taken too, and lowercase input encodes
	// to the same on-disk name.
	if _, err := fs.Mkdir(null, d, fileName(3), 10); err == nil {
		t.Fatal("directory over an existing file name accepted")
	}
	if _, err := fs.Mkdir(null, fs.Root(), "x", 10); err == nil {
		t.Fatal("lowercase duplicate directory accepted")
	}
	if got := freeClusters(fs); got != free {
		t.Fatalf("rejected Mkdir allocated clusters: %d free, want %d", got, free)
	}
	if n := len(fs.ReadDir(null, fs.Root())); n != 1 {
		t.Fatalf("root holds %d entries after rejected Mkdirs, want 1", n)
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMkdirAndNestedLookup(t *testing.T) {
	// The path workload's shape: a top directory holding a subdirectory
	// of files, resolved one Lookup per level through Entry.Dir.
	fs := newFS(t)
	top, err := fs.Mkdir(null, fs.Root(), "TOP", 16)
	if err != nil {
		t.Fatal(err)
	}
	mkdirPopulated(t, fs, top, "SUB", 1000)
	d := fs.Root()
	for _, name := range []string{"TOP", "SUB"} {
		e, err := fs.Lookup(null, d, name)
		if err != nil {
			t.Fatal(err)
		}
		if d, err = e.Dir(fs); err != nil {
			t.Fatal(err)
		}
	}
	e, err := fs.Lookup(null, d, fileName(999))
	if err != nil {
		t.Fatal(err)
	}
	if e.Index != 999 || e.IsDir() {
		t.Fatalf("resolved %+v, want file slot 999", e)
	}
	if _, err := e.Dir(fs); err == nil {
		t.Fatal("Entry.Dir accepted a file")
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMkdirCapacityMatchesPaper(t *testing.T) {
	// A 1000-entry directory must occupy exactly 32,000 bytes of entry
	// storage => 8 clusters of 4 KB.
	fs := newFS(t)
	d, err := fs.Mkdir(null, fs.Root(), "DIR0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	span, err := fs.Extent(d)
	if err != nil {
		t.Fatal(err)
	}
	if span.Size != 32<<10 {
		t.Fatalf("directory span = %d bytes, want %d (8×4KB clusters)", span.Size, 32<<10)
	}
}

func TestExtentContiguous(t *testing.T) {
	fs := newFS(t)
	// Fragment the FAT: one free cluster, then D1, then a cluster held
	// by no directory, then free space. D2 needs 8 clusters, so it fits
	// neither the one-cluster hole nor the gap before the held cell and
	// must start past it, still contiguous.
	fs.setFAT(null, minCluster, fatEndOfFile)
	if _, err := fs.Mkdir(null, fs.Root(), "D1", 500); err != nil {
		t.Fatal(err)
	}
	fs.setFAT(null, minCluster, fatFree)
	held := minCluster + 1 + 4 + 2 // past the hole, D1's 4 clusters and a 2-cluster gap
	fs.setFAT(null, held, fatEndOfFile)
	d2, err := fs.Mkdir(null, fs.Root(), "D2", 1000)
	if err != nil {
		t.Fatal(err)
	}
	span, err := fs.Extent(d2)
	if err != nil {
		t.Fatalf("directory not contiguous: %v", err)
	}
	if span.Base != fs.clusterAddr(held+1) || span.Size != 8*uint64(fs.clusterBytes) {
		t.Fatalf("D2 spans %+v, want 8 clusters from cluster %d", span, held+1)
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPopulateFillsDirectory(t *testing.T) {
	fs := newFS(t)
	d, err := fs.Mkdir(null, fs.Root(), "DIR0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Populate(d, 1000, func(i int) string {
		return fmt.Sprintf("F%07d", i)
	}); err != nil {
		t.Fatal(err)
	}
	entries := fs.ReadDir(null, d)
	if len(entries) != 1000 {
		t.Fatalf("ReadDir returned %d entries, want 1000", len(entries))
	}
	// Random spot checks via Lookup.
	for _, i := range []int{0, 1, 499, 999} {
		name := fmt.Sprintf("F%07d", i)
		if _, err := fs.Lookup(null, d, name); err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPopulateOverflowRejected(t *testing.T) {
	fs := newFS(t)
	d, err := fs.Mkdir(null, fs.Root(), "SMALL", 128)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity rounds up to one cluster = 128 entries; 129 must fail.
	if err := fs.Populate(d, 129, func(i int) string {
		return fmt.Sprintf("F%07d", i)
	}); err == nil {
		t.Fatal("overfull Populate accepted")
	}
}

func TestDeletedEntriesSkippedInLookup(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Mkdir(null, fs.Root(), "A", 1); err != nil {
		t.Fatal(err)
	}
	d := mkdirPopulated(t, fs, fs.Root(), "B", 2)
	deleteSlot(t, fs, fs.Root(), 0) // A
	deleteSlot(t, fs, d, 0)
	// B and F0000001 each sit after a deleted slot; lookup must skip it,
	// not stop.
	if _, err := fs.Lookup(null, fs.Root(), "B"); err != nil {
		t.Fatalf("lookup after deleted entry: %v", err)
	}
	e, err := fs.Lookup(null, d, fileName(1))
	if err != nil {
		t.Fatalf("lookup after deleted entry: %v", err)
	}
	if e.Index != 1 {
		t.Fatalf("found slot %d, want 1", e.Index)
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLookupChargesProportionalToPosition(t *testing.T) {
	// The cost model must reflect the linear scan: finding the last
	// entry costs more than finding the first.
	fs := newFS(t)
	d, err := fs.Mkdir(null, fs.Root(), "DIR0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Populate(d, 1000, func(i int) string {
		return fmt.Sprintf("F%07d", i)
	}); err != nil {
		t.Fatal(err)
	}
	var first, last countingAccess
	if _, err := fs.Lookup(&first, d, "F0000000"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(&last, d, "F0000999"); err != nil {
		t.Fatal(err)
	}
	// First entry: one sector load. Last entry: 63 sector loads (32,000
	// bytes) plus 7 FAT hops. The compare loop is strictly per-entry.
	if first.loads != 1 {
		t.Fatalf("first-entry lookup charged %d loads, want 1 sector", first.loads)
	}
	if last.loads < 60*first.loads {
		t.Fatalf("scan not linear: first=%d loads, last=%d loads", first.loads, last.loads)
	}
	if last.compute < 900*CompareCost {
		t.Fatalf("compare cost not per-entry: %v", last.compute)
	}
}

// countingAccess counts charged operations for cost-model tests.
type countingAccess struct {
	loads, stores int
	compute       float64
}

func (c *countingAccess) Load(mem.Addr, int)  { c.loads++ }
func (c *countingAccess) Store(mem.Addr, int) { c.stores++ }
func (c *countingAccess) Compute(x float64)   { c.compute += x }

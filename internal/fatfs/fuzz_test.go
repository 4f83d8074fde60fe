package fatfs

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
)

// FuzzLookupMatchesModel builds a volume of random shape — 1 to 6
// directories under the root, each with 1 to 200 populated entries and up
// to 255 spare slots, in clusters of 1 to 8 sectors — marks a random set
// of slots deleted (the root's directory slots included), and checks every
// directory against the list of its live names:
//
//   - Lookup finds each live name at its slot index, and returns
//     ErrNotFound for a deleted name and for a name never written;
//   - the loads and compare cycles a hit charges never fall as its slot
//     position grows, and a miss charges at least as much as the last hit;
//   - ReadDir lists exactly the live names, in slot order;
//   - CheckConsistency finds nothing wrong.
//
// deleted is a bitmap over slots: the root's first, then each directory's
// in turn. One input runs in well under a millisecond.
//
//	go test -run=NONE -fuzz=FuzzLookupMatchesModel ./internal/fatfs
func FuzzLookupMatchesModel(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint16(9), uint8(0), []byte(nil))
	f.Add(uint8(0), uint8(2), uint16(199), uint8(40), []byte{0x02, 0xff, 0x00, 0x81})
	f.Add(uint8(0), uint8(5), uint16(127), uint8(0), []byte{0x00, 0x55, 0x55, 0x55, 0x55})
	f.Add(uint8(2), uint8(1), uint16(0), uint8(255), []byte{0x01, 0x01})
	f.Add(uint8(1), uint8(3), uint16(15), uint8(0), []byte{0xf0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, spcLog, dirsArg uint8, entriesArg uint16, spare uint8, deleted []byte) {
		spc := 1 << (spcLog % 4)
		dirs := 1 + int(dirsArg)%6
		entries := 1 + int(entriesArg)%200
		fs, err := Format(mem.NewImage(1<<20), Config{TotalBytes: 512 << 10, SectorsPerCluster: spc, RootEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		bit := 0
		nextDeleted := func() bool {
			del := bit/8 < len(deleted) && deleted[bit/8]>>(bit%8)&1 != 0
			bit++
			return del
		}

		root := fs.Root()
		dirNames := make([]string, dirs)
		handles := make([]Dir, dirs)
		for i := range handles {
			dirNames[i] = fmt.Sprintf("DIR%d", i)
			if handles[i], err = fs.Mkdir(null, root, dirNames[i], entries+int(spare)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Populate(handles[i], entries, fileName); err != nil {
				t.Fatal(err)
			}
		}
		fileNames := make([]string, entries)
		for j := range fileNames {
			fileNames[j] = fileName(j)
		}
		markDeleted := func(d Dir, n int) []bool {
			live := make([]bool, n)
			for j := range live {
				if live[j] = !nextDeleted(); !live[j] {
					deleteSlot(t, fs, d, j)
				}
			}
			return live
		}
		rootLive := markDeleted(root, dirs)
		dirLive := make([][]bool, dirs)
		for i, d := range handles {
			dirLive[i] = markDeleted(d, entries)
		}

		checkLookupModel(t, fs, root, dirNames, rootLive)
		for i, d := range handles {
			checkLookupModel(t, fs, d, fileNames, dirLive[i])
		}
		if err := fs.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// checkLookupModel checks d, whose slot j holds names[j] (deleted unless
// live[j]), against Lookup and ReadDir.
func checkLookupModel(t *testing.T, fs *FS, d Dir, names []string, live []bool) {
	t.Helper()
	var last countingAccess
	var want, misses []string
	for j, name := range names {
		if !live[j] {
			misses = append(misses, name)
			continue
		}
		var acc countingAccess
		e, err := fs.Lookup(&acc, d, name)
		if err != nil || e.Index != j || e.Name != name {
			t.Fatalf("Lookup(%s) = index %d name %q err %v, want index %d", name, e.Index, e.Name, err, j)
		}
		if acc.loads < last.loads || acc.compute < last.compute {
			t.Fatalf("Lookup(%s) at slot %d charged %+v, less than an earlier slot's %+v", name, j, acc, last)
		}
		last = acc
		want = append(want, name)
	}
	for _, name := range append(misses, "NOPE.TXT") {
		var acc countingAccess
		_, err := fs.Lookup(&acc, d, name)
		var nf ErrNotFound
		if !errors.As(err, &nf) {
			t.Fatalf("Lookup(%s) err = %v, want ErrNotFound", name, err)
		}
		if acc.loads < last.loads || acc.compute < last.compute {
			t.Fatalf("missed Lookup(%s) charged %+v, less than the last hit's %+v", name, acc, last)
		}
	}
	var got []string
	for _, e := range fs.ReadDir(null, d) {
		got = append(got, e.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ReadDir = %v, want %v", got, want)
	}
}

package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
)

// testRec is one visited record of a sample log.
type testRec struct {
	shard        int
	hash, parent uint64
	eidx         int32
}

// logDeltas are the records three successive cuts of one run add, each
// to some shards and not to others.
var logDeltas = [][]testRec{
	{{0, 1, 0, -1}, {0, 99, 1, 0}, {0, 500, 1, 3}, {2, 7, 1, 2}},
	{{0, 50, 99, 1}, {1, 3, 7, 0}},
	{{1, 2, 3, 4}, {1, 9, 3, 5}, {2, 8, 50, 1}},
}

// cutSnapshot is the snapshot of cut k holding recs, which it sorts.
func cutSnapshot(k int, recs []testRec) *Snapshot {
	states := 0
	for _, d := range logDeltas[:k+1] {
		states += len(d)
	}
	s := &Snapshot{
		OptionsFP:   0x1234567890abcdef,
		Options:     "cfg={NMutators:1} workers=any reduce=false",
		Depth:       3 + 2*k,
		States:      int64(states),
		Transitions: int64(10 * states),
		Ample:       int64(k),
		Deadlocks:   1,
		Checkpoints: k + 1,
		Frontier:    [][]byte{{byte(k), 0x02}, {0xff, byte(k)}},
		Shards:      make([]Shard, 3),
	}
	slices.SortFunc(recs, func(a, b testRec) int { return int(a.hash) - int(b.hash) })
	for _, r := range recs {
		sh := &s.Shards[r.shard]
		sh.Hashes = append(sh.Hashes, r.hash)
		sh.Parents = append(sh.Parents, r.parent)
		sh.EIdxs = append(sh.EIdxs, r.eidx)
	}
	return s
}

// sampleLog writes the three cuts as a log at path through fsys and
// returns the full snapshot of each cut, marshalled.
func sampleLog(t *testing.T, fsys storage.FS, path string) (cuts [][]byte) {
	t.Helper()
	var l *Log
	var all []testRec
	for k, d := range logDeltas {
		all = append(all, d...)
		cuts = append(cuts, cutSnapshot(k, slices.Clone(all)).Marshal())
		seg := cutSnapshot(k, slices.Clone(d))
		var n int64
		var err error
		if k == 0 {
			l, n, err = Create(fsys, path, seg, serial)
		} else {
			n, err = l.Append(seg, serial)
		}
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Fatalf("segment %d: %d bytes written", k, n)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return cuts
}

// imageStarts returns the offsets of a log's images.
func imageStarts(t *testing.T, data []byte) []int {
	t.Helper()
	var at []int
	for off := 0; off < len(data); {
		img, err := decode(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		at = append(at, off)
		off += img.n
	}
	return at
}

// TestLogLoadsTheLastCut: a log of three segments loads as the full
// snapshot of its last cut, and a reader of single images refuses it.
// Its segments carry no per-record audit fingerprints, which the subtest
// name records.
func TestLogLoadsTheLastCut(t *testing.T) {
	t.Run("audit=false", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		cuts := sampleLog(t, storage.OSFS{}, path)
		got, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dropped != 0 {
			t.Fatalf("dropped %d segments of an undamaged log", got.Dropped)
		}
		if !bytes.Equal(got.Marshal(), cuts[2]) {
			t.Fatal("the log's union is not the last cut's snapshot")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(data); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
			t.Fatalf("Unmarshal of a log: err = %v, want trailing bytes refused", err)
		}
		if _, err := os.Stat(path + storage.TmpSuffix); !os.IsNotExist(err) {
			t.Fatalf("staging file left behind: %v", err)
		}
	})
}

// TestLogTornAndDamagedTail: a log cut anywhere inside its last segment,
// or with any byte of it flipped, loads as the cut before and reports
// the one segment it dropped; any flipped byte of the base refuses it.
func TestLogTornAndDamagedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cuts := sampleLog(t, storage.OSFS{}, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := imageStarts(t, data)
	last := at[2]

	check := func(what string, mut []byte, dropped int) {
		t.Helper()
		got, err := readLog(mut)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got.Dropped != dropped {
			t.Fatalf("%s: %d segments dropped, want %d", what, got.Dropped, dropped)
		}
		if !bytes.Equal(got.Marshal(), cuts[1]) {
			t.Fatalf("%s: did not load the second cut", what)
		}
	}
	check("cut at the last segment's start", data[:last], 0)
	for cut := last + 1; cut < len(data); cut++ {
		check(fmt.Sprintf("cut at %d of %d", cut, len(data)), data[:cut], 1)
	}
	for i := last; i < len(data); i++ {
		mut := slices.Clone(data)
		mut[i] ^= 0x40
		check(fmt.Sprintf("flip at %d of %d", i, len(data)), mut, 1)
	}
	for i := 0; i < at[1]; i++ {
		mut := slices.Clone(data)
		mut[i] ^= 0x40
		if _, err := readLog(mut); err == nil {
			t.Fatalf("flip at %d in the base: the log loaded", i)
		}
	}
}

// TestLogRefusesSplices: segments that verify one by one but do not
// make one log are refused, not merged.
func TestLogRefusesSplices(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	sampleLog(t, storage.OSFS{}, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := append(imageStarts(t, data), len(data))
	without := func(k int) []byte {
		return append(slices.Clone(data[:at[k]]), data[at[k+1]:]...)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"no base", data[at[1]:], "begins with a delta"},
		{"middle segment removed", without(1), "visited records"},
		{"segment repeated", append(slices.Clone(data), data[at[2]:]...), "visited records"},
		{"full image appended", append(slices.Clone(data), data[:at[1]]...), "full image inside a log"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := readLog(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want it to say %q", err, c.want)
			}
		})
	}

	if _, err := Unmarshal(data[at[1]:at[2]]); err == nil || !strings.Contains(err.Error(), "delta segment") {
		t.Fatalf("Unmarshal of a delta segment: err = %v", err)
	}

	// A segment that adds no records leaves the union count alone when
	// it goes missing: the predecessor link catches that.
	path = filepath.Join(t.TempDir(), "links.ckpt")
	l, _, err := Create(storage.OSFS{}, path, cutSnapshot(0, slices.Clone(logDeltas[0])), serial)
	if err != nil {
		t.Fatal(err)
	}
	empty := cutSnapshot(0, nil)
	empty.Depth++
	for _, s := range []*Snapshot{empty, cutSnapshot(1, slices.Clone(logDeltas[1]))} {
		if _, err := l.Append(s, serial); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at = append(imageStarts(t, data), len(data))
	if _, err := readLog(data); err != nil {
		t.Fatal(err)
	}
	spliced := append(slices.Clone(data[:at[1]]), data[at[2]:]...)
	if _, err := readLog(spliced); err == nil || !strings.Contains(err.Error(), "does not follow") {
		t.Fatalf("log without its empty segment: err = %v, want a broken link", err)
	}
}

// TestAppendFaultMatrix: every fault kind at every operation of a delta
// append. Whatever the append reports, the file must then load to the
// cut before it or to its own — to its own if it reported success.
func TestAppendFaultMatrix(t *testing.T) {
	probe := storage.NewFaultFS(nil)
	sampleLog(t, probe, filepath.Join(t.TempDir(), "run.ckpt"))
	// create, write, sync, rename for the base; then two appends and the
	// close.
	perAppend := (probe.Ops() - 4 - 1) / 2
	if perAppend != 2 {
		t.Fatalf("an append takes %d ops, want a write and a sync", perAppend)
	}
	var all []testRec
	var cuts [][]byte
	for k, d := range logDeltas[:2] {
		all = append(all, d...)
		cuts = append(cuts, cutSnapshot(k, slices.Clone(all)).Marshal())
	}
	for _, kind := range storage.Kinds {
		for op := 0; op < perAppend; op++ {
			t.Run(fmt.Sprintf("%s@%d", kind, op), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				ffs := storage.NewFaultFS(nil)
				l, _, err := Create(ffs, path, cutSnapshot(0, slices.Clone(logDeltas[0])), serial)
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				ffs.FailAt(ffs.Ops()+op, kind)
				_, aerr := l.Append(cutSnapshot(1, slices.Clone(logDeltas[1])), serial)

				got, err := Load(path) // through a clean filesystem: a restart
				if err != nil {
					t.Fatalf("the log no longer loads: %v (append error: %v)", err, aerr)
				}
				b := got.Marshal()
				switch {
				case bytes.Equal(b, cuts[1]):
				case bytes.Equal(b, cuts[0]) && aerr != nil:
				default:
					t.Fatalf("loaded depth %d after an append that reported %v", got.Depth, aerr)
				}
			})
		}
	}
}

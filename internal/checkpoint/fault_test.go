package checkpoint

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// TestSaveFaultMatrix is the exhaustive hostile-disk matrix for the
// checkpoint save path: every fault kind at every I/O operation of a
// save over an existing good checkpoint. The invariant is the
// durability contract of the whole repo: a faulted save either fails
// loudly and leaves the previous checkpoint byte-intact, or claims
// success — in which case a clean reload must produce the new
// snapshot, the previous snapshot, or a loud error naming the damage.
// It must NEVER load a third, silently-wrong snapshot (the torn-rename
// kind exists precisely to try).
func TestSaveFaultMatrix(t *testing.T) {
	prev, next := sample(), sample()
	next.Depth, next.Checkpoints = 8, 4
	prevBytes, nextBytes := prev.Marshal(), next.Marshal()
	if bytes.Equal(prevBytes, nextBytes) {
		t.Fatal("matrix needs two distinguishable snapshots")
	}

	// Count the I/O operations of one clean save.
	probe := storage.NewFaultFS(nil)
	if _, err := SaveFS(probe, filepath.Join(t.TempDir(), "probe.ckpt"), next); err != nil {
		t.Fatal(err)
	}
	nops := probe.Ops()
	if nops < 5 { // create, write, sync, close, rename at minimum
		t.Fatalf("probe counted only %d ops", nops)
	}

	for _, kind := range storage.Kinds {
		for op := 0; op < nops; op++ {
			t.Run(fmt.Sprintf("%s@%d", kind, op), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				if _, err := Save(path, prev); err != nil {
					t.Fatal(err)
				}
				ffs := storage.NewFaultFS(nil)
				ffs.FailAt(op, kind)
				_, serr := SaveFS(ffs, path, next)

				// Recovery is always through a fresh, clean filesystem
				// — the moral equivalent of a process restart.
				loaded, lerr := Load(path)
				if serr != nil {
					// Loud failure: the previous checkpoint must have
					// survived byte-identical.
					if lerr != nil {
						t.Fatalf("failed save damaged the prior checkpoint: %v (save error: %v)", lerr, serr)
					}
					if !bytes.Equal(loaded.Marshal(), prevBytes) {
						t.Fatalf("failed save left neither old nor new contents (save error: %v)", serr)
					}
					return
				}
				// Claimed success. Either version may be on disk, or the
				// reader must detect the tear — silence plus garbage is
				// the one forbidden outcome.
				if lerr != nil {
					if fmt.Sprint(lerr) == "" {
						t.Fatal("load failed without naming the damage")
					}
					return
				}
				got := loaded.Marshal()
				if !bytes.Equal(got, nextBytes) && !bytes.Equal(got, prevBytes) {
					t.Fatalf("silent corruption: loaded snapshot matches neither version")
				}
			})
		}
	}
}

// TestLoadFaultMatrix: every fault kind at every read-side operation.
// A faulted load either errors or returns exactly the saved snapshot.
func TestLoadFaultMatrix(t *testing.T) {
	snap := sample()
	want := snap.Marshal()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := Save(path, snap); err != nil {
		t.Fatal(err)
	}

	probe := storage.NewFaultFS(nil)
	if _, err := LoadFS(probe, path); err != nil {
		t.Fatal(err)
	}
	nops := probe.Ops()

	for _, kind := range storage.Kinds {
		for op := 0; op < nops; op++ {
			t.Run(fmt.Sprintf("%s@%d", kind, op), func(t *testing.T) {
				ffs := storage.NewFaultFS(nil)
				ffs.FailAt(op, kind)
				got, err := LoadFS(ffs, path)
				if err != nil {
					return // loud is fine
				}
				if !bytes.Equal(got.Marshal(), want) {
					t.Fatal("faulted load returned a wrong snapshot without an error")
				}
			})
		}
	}
}

// TestSectionFraming: the exported framing used by the spill files
// round-trips and detects corruption, and SectionOverhead accounts for
// every framing byte.
func TestSectionFraming(t *testing.T) {
	payload := []byte("spilled frontier entry")
	frame := AppendSection(nil, "s", payload)
	if len(frame) != len(payload)+SectionOverhead("s") {
		t.Fatalf("frame length %d, overhead says %d", len(frame), len(payload)+SectionOverhead("s"))
	}
	name, got, next, err := ReadSection(frame, 0)
	if err != nil || name != "s" || !bytes.Equal(got, payload) || next != len(frame) {
		t.Fatalf("round trip: name=%q err=%v next=%d", name, err, next)
	}
	frame[len(frame)-6] ^= 0x40 // flip a payload bit
	if _, _, _, err := ReadSection(frame, 0); err == nil {
		t.Fatal("corrupted frame read silently")
	}
}

package storage

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestOSFSRoundTrip: the passthrough FS behaves like the os package
// for the whole interface surface.
func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fsys FS = OSFS{}
	if err := fsys.MkdirAll(filepath.Join(dir, "a/b")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a/b/x.bin")
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(fsys, path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if _, err := fsys.Stat(path); err != nil {
		t.Fatal(err)
	}
	ents, err := fsys.ReadDir(filepath.Join(dir, "a/b"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := fsys.Rename(path, path+".2"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(path + ".2"); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFileAtomic: success replaces the destination and leaves no
// staging file; a failed write leaves the previous contents intact.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.json")
	if err := WriteFileAtomic(OSFS{}, path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(OSFS{}, path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "two" {
		t.Fatalf("contents = %q", got)
	}
	if _, err := os.Stat(path + TmpSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("staging file left behind: %v", err)
	}

	ffs := NewFaultFS(OSFS{})
	ffs.FailPath("v.json", EIO, 0) // first op touching the path: Create of the tmp
	if err := WriteFileAtomic(ffs, path, []byte("three")); err == nil {
		t.Fatal("faulted write reported success")
	}
	if got, _ := os.ReadFile(path); string(got) != "two" {
		t.Fatalf("failed atomic write damaged the destination: %q", got)
	}
}

// TestFaultKinds walks each kind through its defining behavior.
func TestFaultKinds(t *testing.T) {
	t.Run("eio", func(t *testing.T) {
		ffs := NewFaultFS(OSFS{})
		ffs.FailAt(0, EIO)
		_, err := ffs.Create(filepath.Join(t.TempDir(), "x"))
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Kind != EIO || !errors.Is(err, syscall.EIO) {
			t.Fatalf("err = %v", err)
		}
		if !IsTransient(err) {
			t.Fatal("EIO not transient")
		}
	})
	t.Run("enospc", func(t *testing.T) {
		ffs := NewFaultFS(OSFS{})
		ffs.FailAt(1, ENOSPC) // op 0 = create, op 1 = write
		f, err := ffs.Create(filepath.Join(t.TempDir(), "x"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Write([]byte("data"))
		if !errors.Is(err, syscall.ENOSPC) || !IsTransient(err) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("short-write", func(t *testing.T) {
		dir := t.TempDir()
		ffs := NewFaultFS(OSFS{})
		ffs.FailAt(1, ShortWrite)
		f, _ := ffs.Create(filepath.Join(dir, "x"))
		n, err := f.Write([]byte("12345678"))
		if n != 4 || !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("n=%d err=%v", n, err)
		}
		f.Close()
		if got, _ := os.ReadFile(filepath.Join(dir, "x")); string(got) != "1234" {
			t.Fatalf("persisted %q, want the torn prefix", got)
		}
	})
	t.Run("torn-rename-is-silent", func(t *testing.T) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, "src"), []byte("12345678"), 0o644)
		ffs := NewFaultFS(OSFS{})
		ffs.FailPath("src", TornRename, 0)
		if err := ffs.Rename(filepath.Join(dir, "src"), filepath.Join(dir, "dst")); err != nil {
			t.Fatalf("torn rename must report success, got %v", err)
		}
		if got, _ := os.ReadFile(filepath.Join(dir, "dst")); string(got) != "1234" {
			t.Fatalf("dst = %q, want the torn prefix", got)
		}
		if _, err := os.Stat(filepath.Join(dir, "src")); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("source survived the torn rename")
		}
	})
	t.Run("fsync-fail", func(t *testing.T) {
		ffs := NewFaultFS(OSFS{})
		ffs.FailAt(2, FsyncFail) // create, write, sync
		f, _ := ffs.Create(filepath.Join(t.TempDir(), "x"))
		f.Write([]byte("d"))
		err := f.Sync()
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Kind != FsyncFail || !IsTransient(err) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("crash-freezes-everything", func(t *testing.T) {
		dir := t.TempDir()
		hooked := false
		ffs := NewFaultFS(OSFS{})
		ffs.OnCrash(func() { hooked = true })
		ffs.FailAt(1, Crash)
		f, _ := ffs.Create(filepath.Join(dir, "x"))
		_, err := f.Write([]byte("12345678"))
		if !errors.Is(err, ErrCrashed) || !hooked || !ffs.Crashed() {
			t.Fatalf("err=%v hooked=%v crashed=%v", err, hooked, ffs.Crashed())
		}
		if IsTransient(err) {
			t.Fatal("crash must not be transient")
		}
		// The torn prefix was applied before the freeze.
		f2, _ := os.ReadFile(filepath.Join(dir, "x"))
		if string(f2) != "1234" {
			t.Fatalf("crash write persisted %q", f2)
		}
		// Every later op fails, on any path.
		if _, err := ffs.Stat(dir); !errors.Is(err, ErrCrashed) {
			t.Fatalf("post-crash stat = %v", err)
		}
		if _, err := ffs.Create(filepath.Join(dir, "y")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("post-crash create = %v", err)
		}
	})
}

// TestFaultTraceAndDeterminism: the op trace records every operation
// with its injection, and the same seed replays the same faults.
func TestFaultTraceAndDeterminism(t *testing.T) {
	run := func(seed int64) []Op {
		dir := t.TempDir()
		ffs := NewFaultFS(OSFS{})
		ffs.Seed(seed, 0.5)
		for i := 0; i < 20; i++ {
			WriteFileAtomic(ffs, filepath.Join(dir, "f.json"), []byte("payload"))
		}
		return ffs.Trace()
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trace lengths %d vs %d", len(a), len(b))
	}
	injected := 0
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Injected != b[i].Injected {
			t.Fatalf("op %d diverged: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Injected != "" {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("rate 0.5 injected nothing")
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Injected != c[i].Injected {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
	if out := FormatTrace(a); !strings.Contains(out, "create") {
		t.Fatalf("FormatTrace output unrecognizable:\n%s", out)
	}
}

// TestFromSpec: the CLI grammar covers index, path, skip, and seeded
// clauses, and rejects unknown kinds.
func TestFromSpec(t *testing.T) {
	ffs, err := FromSpec(OSFS{}, "eio@3, crash@run.ckpt+2, seed=9, rate=0.25")
	if err != nil {
		t.Fatal(err)
	}
	ffs.mu.Lock()
	if ffs.byIndex[3] != EIO {
		t.Fatalf("byIndex = %v", ffs.byIndex)
	}
	if len(ffs.byPath) != 1 || ffs.byPath[0].substr != "run.ckpt" || ffs.byPath[0].skip != 2 || ffs.byPath[0].kind != Crash {
		t.Fatalf("byPath = %+v", ffs.byPath[0])
	}
	if ffs.rng == nil || ffs.rate != 0.25 {
		t.Fatalf("seeded mode not armed: rate=%v", ffs.rate)
	}
	ffs.mu.Unlock()

	if _, err := FromSpec(nil, "nuke@3"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := FromSpec(nil, "eio"); err == nil {
		t.Fatal("clause without target accepted")
	}
}

// TestFailPathSkip: the +k selector lets k matches pass, then fires
// exactly once.
func TestFailPathSkip(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	ffs.FailPath("hot", EIO, 2)
	path := filepath.Join(dir, "hot.bin")
	var errs []error
	for i := 0; i < 5; i++ {
		_, err := ffs.Stat(path)
		errs = append(errs, err)
	}
	for i, err := range errs {
		faulted := errors.Is(err, syscall.EIO)
		if want := i == 2; faulted != want {
			t.Fatalf("op %d: faulted=%v want %v (%v)", i, faulted, want, err)
		}
	}
}

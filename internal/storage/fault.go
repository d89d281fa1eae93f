package storage

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// Kind names one injectable fault.
type Kind string

const (
	// EIO fails the operation with an I/O error.
	EIO Kind = "eio"
	// ENOSPC fails the operation with a disk-full error.
	ENOSPC Kind = "enospc"
	// ShortWrite persists a prefix of the data, then fails the write.
	ShortWrite Kind = "short-write"
	// TornRename REPORTS SUCCESS but installs a truncated copy of the
	// source at the destination — the silent fault that only a
	// checksumming reader can catch.
	TornRename Kind = "torn-rename"
	// FsyncFail fails the Sync call; the data may or may not be durable.
	FsyncFail Kind = "fsync-fail"
	// Crash applies a torn prefix of any in-flight write, then freezes
	// the filesystem: every later operation fails with ErrCrashed.
	// Recovery means reopening the directory with a fresh FS, exactly
	// like a process restart.
	Crash Kind = "crash"
)

// Kinds lists every injectable fault, in matrix order.
var Kinds = []Kind{EIO, ENOSPC, ShortWrite, TornRename, FsyncFail, Crash}

// ErrCrashed is the terminal error a crashed FaultFS returns for every
// operation after the crash point.
var ErrCrashed = errors.New("storage: simulated crash")

// FaultError is the loud, named error every injected fault surfaces
// as (except TornRename, whose whole point is silence).
type FaultError struct {
	Kind  Kind
	Op    string // operation name: "write", "sync", "rename", ...
	Path  string
	Index int // zero-based operation index in the FaultFS op trace
	Under error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("storage fault: %s at op %d (%s %s): %v", e.Kind, e.Index, e.Op, e.Path, e.Under)
}

func (e *FaultError) Unwrap() error { return e.Under }

// IsTransient reports whether err looks like a storage failure a retry
// may clear: injected or real EIO/ENOSPC, short writes, and failed
// fsyncs. Crashes are not transient — the process is gone.
func IsTransient(err error) bool {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe.Kind != Crash
	}
	return errors.Is(err, syscall.EIO) || errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, io.ErrShortWrite)
}

// Op is one entry of the FaultFS operation trace.
type Op struct {
	Index    int
	Name     string
	Path     string
	Injected Kind // "" when the op ran clean
}

// Fault is one scheduled injection.
type Fault struct {
	// Op selects a zero-based operation index; -1 selects by Path.
	Op int
	// Path selects the next operation whose path contains this
	// substring (after skipping Skip earlier matches). Fires once.
	Path string
	// Skip is the number of matching operations to let pass first.
	Skip int
	Kind Kind
}

func (f Fault) String() string {
	if f.Op >= 0 {
		return fmt.Sprintf("%s@%d", f.Kind, f.Op)
	}
	if f.Skip > 0 {
		return fmt.Sprintf("%s@%s+%d", f.Kind, f.Path, f.Skip)
	}
	return fmt.Sprintf("%s@%s", f.Kind, f.Path)
}

type pathFault struct {
	substr string // gcrt:guard by(FaultFS.mu)
	kind   Kind   // gcrt:guard by(FaultFS.mu)
	skip   int    // gcrt:guard by(FaultFS.mu)
	spent  bool   // gcrt:guard by(FaultFS.mu)
}

// FaultFS wraps an inner FS and injects scheduled or seeded-random
// faults at operation boundaries, recording an op trace so a failing
// schedule can be reported.
type FaultFS struct {
	inner FS // gcrt:guard immutable

	mu      sync.Mutex   // gcrt:guard atomic
	crashFn func()       // gcrt:guard by(mu)
	n       int          // gcrt:guard by(mu)
	trace   []Op         // gcrt:guard by(mu)
	byIndex map[int]Kind // gcrt:guard by(mu)
	byPath  []*pathFault // gcrt:guard by(mu)
	rng     *rand.Rand   // gcrt:guard by(mu)
	rate    float64      // gcrt:guard by(mu)
	kinds   []Kind       // gcrt:guard by(mu)
	crashed bool         // gcrt:guard by(mu)
}

// NewFaultFS wraps inner (nil = the real filesystem) with no faults
// scheduled; a bare FaultFS is a pure op recorder.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: OrOS(inner), byIndex: make(map[int]Kind)}
}

// FailAt schedules kind at the given zero-based operation index.
func (f *FaultFS) FailAt(op int, kind Kind) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.byIndex[op] = kind
}

// FailPath schedules kind at the next operation whose path contains
// substr, after letting skip earlier matches pass. Fires once.
func (f *FaultFS) FailPath(substr string, kind Kind, skip int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.byPath = append(f.byPath, &pathFault{substr: substr, kind: kind, skip: skip})
}

// Apply installs a whole fault schedule.
func (f *FaultFS) Apply(sched []Fault) {
	for _, ft := range sched {
		if ft.Op >= 0 {
			f.FailAt(ft.Op, ft.Kind)
		} else {
			f.FailPath(ft.Path, ft.Kind, ft.Skip)
		}
	}
}

// Seed enables seeded-random injection: each operation faults with the
// given probability, drawing uniformly from kinds (defaults to the
// transient kinds — no torn renames or crashes unless asked for).
func (f *FaultFS) Seed(seed int64, rate float64, kinds ...Kind) {
	if len(kinds) == 0 {
		kinds = []Kind{EIO, ENOSPC, ShortWrite, FsyncFail}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = rand.New(rand.NewSource(seed))
	f.rate = rate
	f.kinds = kinds
}

// OnCrash registers a hook run when a Crash fault fires, after the
// torn write is applied and the FS is frozen. gcmcd points this at
// os.Exit to turn an injected crash into a real process death.
func (f *FaultFS) OnCrash(fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashFn = fn
}

// Crashed reports whether a Crash fault has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Ops returns the number of operations recorded so far.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Trace returns a copy of the operation trace.
func (f *FaultFS) Trace() []Op {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Op, len(f.trace))
	copy(out, f.trace)
	return out
}

// FormatTrace renders an op trace one line per operation, marking the
// injected faults — the artifact CI uploads when a chaos run fails.
func FormatTrace(ops []Op) string {
	var b strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&b, "%4d %-8s %s", op.Index, op.Name, op.Path)
		if op.Injected != "" {
			fmt.Fprintf(&b, "   <- %s", op.Injected)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// begin records one operation and decides its injection. It returns
// the op index, the kind needing caller-side handling (ShortWrite or
// Crash on writes, TornRename on rename), and a pre-built error for
// kinds that simply fail the op. A crashed FS fails everything.
func (f *FaultFS) begin(opName, path string) (int, Kind, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return -1, "", &FaultError{Kind: Crash, Op: opName, Path: path, Index: -1, Under: ErrCrashed}
	}
	idx := f.n
	f.n++
	kind := f.byIndex[idx]
	if kind == "" {
		for _, pf := range f.byPath {
			if pf.spent || !strings.Contains(path, pf.substr) {
				continue
			}
			if pf.skip > 0 {
				pf.skip--
				continue
			}
			pf.spent = true
			kind = pf.kind
			break
		}
	}
	if kind == "" && f.rng != nil && f.rng.Float64() < f.rate {
		kind = f.kinds[f.rng.Intn(len(f.kinds))]
	}
	f.trace = append(f.trace, Op{Index: idx, Name: opName, Path: path, Injected: kind})
	if kind == Crash {
		f.crashed = true
	}
	f.mu.Unlock()

	switch kind {
	case "":
		return idx, "", nil
	case Crash:
		return idx, Crash, nil
	case ShortWrite:
		if opName == "write" || opName == "writeat" {
			return idx, ShortWrite, nil
		}
		return idx, "", &FaultError{Kind: ShortWrite, Op: opName, Path: path, Index: idx, Under: io.ErrShortWrite}
	case TornRename:
		if opName == "rename" {
			return idx, TornRename, nil
		}
		return idx, "", &FaultError{Kind: TornRename, Op: opName, Path: path, Index: idx, Under: syscall.EIO}
	case ENOSPC:
		return idx, "", &FaultError{Kind: ENOSPC, Op: opName, Path: path, Index: idx, Under: syscall.ENOSPC}
	case FsyncFail:
		return idx, "", &FaultError{Kind: FsyncFail, Op: opName, Path: path, Index: idx, Under: syscall.EIO}
	default: // EIO and anything unrecognized
		return idx, "", &FaultError{Kind: EIO, Op: opName, Path: path, Index: idx, Under: syscall.EIO}
	}
}

// crashNow runs the crash hook (outside the lock: it may os.Exit) and
// builds the crash error for the op that tripped it.
func (f *FaultFS) crashNow(idx int, opName, path string) error {
	f.mu.Lock()
	fn := f.crashFn
	f.mu.Unlock()
	if fn != nil {
		fn()
	}
	return &FaultError{Kind: Crash, Op: opName, Path: path, Index: idx, Under: ErrCrashed}
}

func (f *FaultFS) Open(name string) (File, error) {
	idx, kind, err := f.begin("open", name)
	if err != nil {
		return nil, err
	}
	if kind == Crash {
		return nil, f.crashNow(idx, "open", name)
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: inner, path: name}, nil
}

func (f *FaultFS) Create(name string) (File, error) {
	idx, kind, err := f.begin("create", name)
	if err != nil {
		return nil, err
	}
	if kind == Crash {
		return nil, f.crashNow(idx, "create", name)
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: inner, path: name}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	idx, kind, err := f.begin("rename", oldpath)
	if err != nil {
		return err
	}
	switch kind {
	case Crash:
		return f.crashNow(idx, "rename", oldpath)
	case TornRename:
		return f.tearRename(oldpath, newpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

// tearRename models a non-atomic replace interrupted halfway: the
// destination ends up a truncated copy of the source, the source is
// gone, and the caller is told everything went fine.
func (f *FaultFS) tearRename(oldpath, newpath string) error {
	data, err := ReadFile(f.inner, oldpath)
	if err != nil {
		return nil // nothing to tear; stay silent like the fault demands
	}
	dst, err := f.inner.Create(newpath)
	if err != nil {
		return nil
	}
	dst.Write(data[:len(data)/2])
	dst.Close()
	f.inner.Remove(oldpath)
	return nil
}

func (f *FaultFS) Remove(name string) error {
	idx, kind, err := f.begin("remove", name)
	if err != nil {
		return err
	}
	if kind == Crash {
		return f.crashNow(idx, "remove", name)
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) MkdirAll(path string) error {
	idx, kind, err := f.begin("mkdirall", path)
	if err != nil {
		return err
	}
	if kind == Crash {
		return f.crashNow(idx, "mkdirall", path)
	}
	return f.inner.MkdirAll(path)
}

func (f *FaultFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	idx, kind, err := f.begin("readdir", name)
	if err != nil {
		return nil, err
	}
	if kind == Crash {
		return nil, f.crashNow(idx, "readdir", name)
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) Stat(name string) (iofs.FileInfo, error) {
	idx, kind, err := f.begin("stat", name)
	if err != nil {
		return nil, err
	}
	if kind == Crash {
		return nil, f.crashNow(idx, "stat", name)
	}
	return f.inner.Stat(name)
}

// faultFile wraps an inner File so per-call reads, writes, and syncs
// hit the same injection machinery as directory-level operations.
type faultFile struct {
	fs   *FaultFS // gcrt:guard immutable
	f    File     // gcrt:guard immutable
	path string   // gcrt:guard immutable
}

func (w *faultFile) Read(p []byte) (int, error) {
	idx, kind, err := w.fs.begin("read", w.path)
	if err != nil {
		return 0, err
	}
	if kind == Crash {
		return 0, w.fs.crashNow(idx, "read", w.path)
	}
	return w.f.Read(p)
}

func (w *faultFile) ReadAt(p []byte, off int64) (int, error) {
	idx, kind, err := w.fs.begin("readat", w.path)
	if err != nil {
		return 0, err
	}
	if kind == Crash {
		return 0, w.fs.crashNow(idx, "readat", w.path)
	}
	return w.f.ReadAt(p, off)
}

func (w *faultFile) Write(p []byte) (int, error) {
	idx, kind, err := w.fs.begin("write", w.path)
	if err != nil {
		return 0, err
	}
	switch kind {
	case ShortWrite:
		n, _ := w.f.Write(p[:len(p)/2])
		return n, &FaultError{Kind: ShortWrite, Op: "write", Path: w.path, Index: idx, Under: io.ErrShortWrite}
	case Crash:
		w.f.Write(p[:len(p)/2])
		return 0, w.fs.crashNow(idx, "write", w.path)
	}
	return w.f.Write(p)
}

func (w *faultFile) WriteAt(p []byte, off int64) (int, error) {
	idx, kind, err := w.fs.begin("writeat", w.path)
	if err != nil {
		return 0, err
	}
	switch kind {
	case ShortWrite:
		n, _ := w.f.WriteAt(p[:len(p)/2], off)
		return n, &FaultError{Kind: ShortWrite, Op: "writeat", Path: w.path, Index: idx, Under: io.ErrShortWrite}
	case Crash:
		w.f.WriteAt(p[:len(p)/2], off)
		return 0, w.fs.crashNow(idx, "writeat", w.path)
	}
	return w.f.WriteAt(p, off)
}

func (w *faultFile) Sync() error {
	idx, kind, err := w.fs.begin("sync", w.path)
	if err != nil {
		return err
	}
	if kind == Crash {
		return w.fs.crashNow(idx, "sync", w.path)
	}
	return w.f.Sync()
}

func (w *faultFile) Close() error {
	idx, kind, err := w.fs.begin("close", w.path)
	if err != nil {
		w.f.Close() // never leak the descriptor
		return err
	}
	if kind == Crash {
		w.f.Close()
		return w.fs.crashNow(idx, "close", w.path)
	}
	return w.f.Close()
}

func (w *faultFile) Name() string { return w.path }

// FromSpec builds a FaultFS over inner from a command-line spec: a
// comma-separated list of clauses
//
//	<kind>@<op-index>        fault at a specific operation index
//	<kind>@<path-substr>     fault at the next op matching the path
//	<kind>@<path-substr>+<k> ... after skipping k matches
//	seed=<n>                 enable seeded-random injection
//	rate=<p>                 ... with this per-op probability
//	kinds=<k1>|<k2>          ... drawing from these kinds
//
// where <kind> is one of eio, enospc, short-write, torn-rename,
// fsync-fail, crash.
func FromSpec(inner FS, spec string) (*FaultFS, error) {
	f := NewFaultFS(inner)
	var seed int64
	rate := -1.0
	var randKinds []Kind
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("storage: bad seed %q: %w", v, err)
			}
			seed = n
			if rate < 0 {
				rate = 0.01
			}
			continue
		}
		if v, ok := strings.CutPrefix(clause, "rate="); ok {
			p, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("storage: bad rate %q: %w", v, err)
			}
			rate = p
			continue
		}
		if v, ok := strings.CutPrefix(clause, "kinds="); ok {
			for _, k := range strings.Split(v, "|") {
				kk, err := parseKind(k)
				if err != nil {
					return nil, err
				}
				randKinds = append(randKinds, kk)
			}
			continue
		}
		kindStr, target, ok := strings.Cut(clause, "@")
		if !ok {
			return nil, fmt.Errorf("storage: bad fault clause %q (want kind@target)", clause)
		}
		kind, err := parseKind(kindStr)
		if err != nil {
			return nil, err
		}
		if op, err := strconv.Atoi(target); err == nil {
			f.FailAt(op, kind)
			continue
		}
		substr, skip := target, 0
		if s, k, ok := strings.Cut(target, "+"); ok {
			if n, err := strconv.Atoi(k); err == nil {
				substr, skip = s, n
			}
		}
		f.FailPath(substr, kind, skip)
	}
	if rate >= 0 {
		f.Seed(seed, rate, randKinds...)
	}
	return f, nil
}

func parseKind(s string) (Kind, error) {
	k := Kind(strings.TrimSpace(s))
	for _, known := range Kinds {
		if k == known {
			return k, nil
		}
	}
	return "", fmt.Errorf("storage: unknown fault kind %q (want one of %v)", s, Kinds)
}

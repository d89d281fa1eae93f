// Package storage is the filesystem seam under every durable artifact
// in the checker: checkpoint saves, the daemon's job records, and the
// explorer's disk-spill files. All of them do
// their I/O through the FS interface so a single fault-injecting
// implementation (FaultFS) can hurt every durability path the same way
// an adversarial disk would — EIO, ENOSPC, short writes, torn renames,
// failed fsyncs, and crashes at arbitrary operation boundaries.
//
// OSFS is the passthrough used in production; OrOS upgrades a nil FS
// to it so callers can thread an optional FS without nil checks.
package storage

import (
	"fmt"
	"io"
	"io/fs"
	"os"
)

// File is the handle the FS hands out. os.File satisfies it; FaultFS
// wraps it to count and corrupt individual reads, writes, and syncs.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer

	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem abstraction every durability path goes through.
// It is deliberately small: exactly the operations the checkpoint
// writer, the job store, and the spill path need.
type FS interface {
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// Create truncates-or-creates a file for writing.
	Create(name string) (File, error)
	// Rename atomically replaces newpath with oldpath (the commit point
	// of every atomic-write protocol in the repo).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat describes a file.
	Stat(name string) (fs.FileInfo, error)
}

// OSFS is the production FS: a passthrough to the operating system.
type OSFS struct{}

func (OSFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error             { return os.Remove(name) }
func (OSFS) MkdirAll(path string) error           { return os.MkdirAll(path, 0o755) }
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return os.ReadDir(name)
}
func (OSFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// OrOS returns fsys, or the real filesystem when fsys is nil. Every
// consumer with an optional FS field goes through this once.
func OrOS(fsys FS) FS {
	if fsys == nil {
		return OSFS{}
	}
	return fsys
}

// ReadFile reads a whole file through fsys.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// TmpSuffix is the suffix every atomic-write protocol in the repo uses
// for its staging file. A file carrying it is by construction either
// in-flight or abandoned by a crash; the daemon's startup sweep
// quarantines any it finds.
const TmpSuffix = ".tmp"

// WriteFileAtomic writes data to path with the repo's atomic-write
// protocol: stage at path+TmpSuffix, write, fsync, close, rename over
// the destination. Any failure removes the staging file and leaves the
// previous contents of path intact (a torn rename is the one fault
// this cannot defend against at the FS layer — readers must checksum).
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + TmpSuffix
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("storage: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("storage: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("storage: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("storage: rename %s: %w", path, err)
	}
	return nil
}

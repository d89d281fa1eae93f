// Package checkpoint defines the durable snapshot format for the model
// checker's layer-synchronous BFS (package explore). A checkpoint is
// written at a layer boundary — the only point where the parallel
// explorer's state is a consistent cut: the frontier of depth d+1 is
// fully built, the visited set contains exactly the states of depths
// 0..d+1, and all counters are settled behind the layer barrier.
//
// # Format
//
// A checkpoint image is a magic header followed by named sections, each
// independently CRC-32-checksummed, closed by a trailer section holding
// a 64-bit hash of every preceding byte:
//
//	magic "GCMCCKP1"
//	section := nameLen u8 | name | payloadLen u64le | payload | crc32(payload) u32le
//	sections: "header", "meta", "frontier", "shard-0".."shard-N", "trailer"
//
// Per-section checksums make corruption reports name the damaged
// section; the whole-image trailer hash additionally covers the framing
// bytes (names, lengths) that no section checksum protects. Decoding
// verifies both: an image either decodes exactly or fails with an error
// naming what is damaged — a tampered file can never yield a garbage
// verdict silently.
//
// # Logs
//
// A checkpoint file is a log of images. The first, the base, is a full
// snapshot. Each later one is a delta segment: a complete image of its
// own cut (frontier and counters) whose shard sections hold only the
// visited records added since the previous segment. A delta sets flag 0x4
// in its meta section and names its predecessor by that image's trailer
// hash. Load returns the union — which re-marshals to exactly the full
// snapshot of the last cut — and requires it to hold exactly the last
// segment's States records, so a dropped or spliced-in segment is
// refused. A one-segment log is a plain image, readable by every
// version of this package; older readers refuse a longer log for the
// bytes after its first trailer.
//
// # Atomicity
//
// A log's base is written to <path>.tmp, fsynced and renamed over
// <path>, so a crash or kill mid-write leaves either the previous file
// or a stale .tmp file that is never loaded. A delta is appended to the
// renamed file and fsynced: a crash mid-append leaves a torn tail,
// which Load drops back to the last segment that verifies (reporting
// how many it dropped in Snapshot.Dropped). Every verified prefix is a
// consistent layer cut, so a dropped tail costs re-work, never a
// different verdict. A damaged base is refused.
//
// Frontier states are serialized with the model's canonical state codec
// (gcmodel.EncodeState); this package treats them as opaque bytes so the
// format — and its corruption-injection tests — need no model.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"strconv"

	"repro/internal/storage"
)

// Version is the current format version, checked on load.
const Version = 1

var magic = [8]byte{'G', 'C', 'M', 'C', 'C', 'K', 'P', '1'}

// Snapshot is one consistent cut of an exploration at a layer boundary.
type Snapshot struct {
	// OptionsFP fingerprints the model configuration and every
	// verdict-relevant exploration option. Resuming validates it: a
	// checkpoint taken under different options (a reduced run resumed
	// unreduced, a different invariant battery, a different shard
	// layout) is refused.
	OptionsFP uint64
	// Options is the human-readable rendering of the fingerprinted
	// options, embedded so a refused resume can say what differed.
	Options string
	// Depth is the BFS depth of the frontier: every frontier state is
	// at this depth, and resuming continues by expanding it.
	Depth int
	// States, Transitions, Ample and Deadlocks are the exploration
	// counters at the cut.
	States, Transitions, Ample, Deadlocks int64
	// Checkpoints counts snapshots written so far in this run,
	// including this one.
	Checkpoints int
	// Frontier holds the serialized frontier states in canonical order
	// (sorted by fingerprint hash).
	Frontier [][]byte
	// Shards holds the visited set, one entry per lock stripe, in shard
	// order. Entries within a shard are sorted by hash.
	Shards []Shard

	// Dropped is the number of images of a damaged log tail that Load
	// discarded to read the snapshot. It is not encoded.
	Dropped int
}

// Shard is the serialized form of one visited-set stripe: parallel
// arrays of state-fingerprint hashes, parent hashes, and event indices
// (the trace-replay table).
type Shard struct {
	Hashes  []uint64
	Parents []uint64
	EIdxs   []int32
}

// Section describes one framed section of a checkpoint file, for
// inspection and fault-injection tests.
type Section struct {
	Name string
	// Off and Len delimit the section payload within the file.
	Off, Len int
}

// --- Marshalling ---

// appendSection frames one section onto dst.
func appendSection(dst []byte, name string, payload []byte) []byte {
	dst = append(dst, byte(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return dst
}

// The meta section's flags. flagDelta marks a delta segment, whose meta
// section then ends with the predecessor's trailer hash. Older audited
// runs set flagFingerprints when each shard entry carried a fingerprint,
// refused here, and 0x2 once their watchdog had dropped them, ignored.
const (
	flagFingerprints = 1
	flagDelta        = 4
)

// ForEach calls f(i) once for every i in [0, n). Create and Append take
// one to write an image's shard sections, which may run in any order and
// from any number of goroutines: their byte ranges are disjoint.
type ForEach func(n int, f func(i int))

func serial(n int, f func(i int)) {
	for i := range n {
		f(i)
	}
}

// Marshal encodes the snapshot into the checkpoint file format.
func (s *Snapshot) Marshal() []byte {
	return s.encode(serial, false, 0)
}

// encode lays the image out in one buffer of exactly its size and fills
// it in a single pass, the shard sections through each. A delta names
// its predecessor's trailer hash.
func (s *Snapshot) encode(each ForEach, delta bool, prev uint64) []byte {
	var hdr []byte
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, s.OptionsFP)
	hdr = binary.AppendUvarint(hdr, uint64(len(s.Options)))
	hdr = append(hdr, s.Options...)

	var meta []byte
	meta = binary.AppendUvarint(meta, uint64(s.Depth))
	meta = binary.AppendVarint(meta, s.States)
	meta = binary.AppendVarint(meta, s.Transitions)
	meta = binary.AppendVarint(meta, s.Ample)
	meta = binary.AppendVarint(meta, s.Deadlocks)
	var flags byte
	if delta {
		flags |= flagDelta
	}
	meta = append(meta, flags)
	meta = binary.AppendUvarint(meta, uint64(s.Checkpoints))
	meta = binary.AppendUvarint(meta, uint64(len(s.Shards)))
	meta = binary.AppendUvarint(meta, uint64(len(s.Frontier)))
	if delta {
		meta = binary.LittleEndian.AppendUint64(meta, prev)
	}

	frLen := 0
	for _, st := range s.Frontier {
		frLen += uvarintLen(uint64(len(st))) + len(st)
	}
	size := len(magic) + framed("header", len(hdr)) + framed("meta", len(meta)) + framed("frontier", frLen)
	names := make([]string, len(s.Shards))
	lens := make([]int, len(s.Shards))
	offs := make([]int, len(s.Shards)+1)
	for i := range s.Shards {
		names[i] = "shard-" + strconv.Itoa(i)
		lens[i] = s.shardLen(i)
		offs[i] = size
		size += framed(names[i], lens[i])
	}
	offs[len(s.Shards)] = size
	size += framed("trailer", 8)

	out := make([]byte, 0, size)
	out = append(out, magic[:]...)
	out = appendSection(out, "header", hdr)
	out = appendSection(out, "meta", meta)
	out = appendFrame(out, "frontier", frLen, func(p []byte) []byte {
		for _, st := range s.Frontier {
			p = binary.AppendUvarint(p, uint64(len(st)))
			p = append(p, st...)
		}
		return p
	})
	each(len(s.Shards), func(i int) {
		appendFrame(out[offs[i]:offs[i]:offs[i+1]], names[i], lens[i], func(p []byte) []byte {
			return s.appendShard(p, i)
		})
	})
	out = out[:offs[len(s.Shards)]]
	return appendSection(out, "trailer", binary.LittleEndian.AppendUint64(nil, hash64(out)))
}

// shardLen is the payload size of shard i's section.
func (s *Snapshot) shardLen(i int) int {
	sh := &s.Shards[i]
	n := uvarintLen(uint64(len(sh.Hashes))) + 16*len(sh.Hashes)
	for _, e := range sh.EIdxs {
		n += uvarintLen(zigzag(int64(e)))
	}
	return n
}

func (s *Snapshot) appendShard(p []byte, i int) []byte {
	sh := &s.Shards[i]
	p = binary.AppendUvarint(p, uint64(len(sh.Hashes)))
	for j := range sh.Hashes {
		p = binary.LittleEndian.AppendUint64(p, sh.Hashes[j])
		p = binary.LittleEndian.AppendUint64(p, sh.Parents[j])
		p = binary.AppendVarint(p, int64(sh.EIdxs[j]))
	}
	return p
}

// framed is the on-disk length of a section with an n-byte payload: the
// name's length byte and bytes, the payload length, the payload and its
// CRC-32.
func framed(name string, n int) int {
	return 1 + len(name) + 8 + n + 4
}

// appendFrame frames a section of n payload bytes, which fill appends,
// onto dst. dst has exactly the room for the frame: a payload of any
// other length is a sizing bug, and would have left the buffer it is
// carved from.
func appendFrame(dst []byte, name string, n int, fill func([]byte) []byte) []byte {
	dst = append(dst, byte(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
	p := len(dst)
	dst = fill(dst)
	if len(dst)-p != n {
		panic(fmt.Sprintf("checkpoint: section %q encoded %d bytes, sized %d", name, len(dst)-p, n))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[p:]))
}

func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

func zigzag(x int64) uint64 {
	return uint64(x<<1) ^ uint64(x>>63)
}

// trailerHash reads an image's whole-image hash from its trailer, the
// last frame: an 8-byte payload before a 4-byte checksum.
func trailerHash(image []byte) uint64 {
	return binary.LittleEndian.Uint64(image[len(image)-12:])
}

// hash64 is the FNV-1a whole-file hash (the same function the checker
// uses for state fingerprints, re-implemented here so the format stands
// alone).
func hash64(b []byte) uint64 {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// Save atomically writes the snapshot to path (via path+".tmp" and
// rename) and returns the number of bytes written.
func Save(path string, s *Snapshot) (int64, error) {
	return SaveFS(storage.OSFS{}, path, s)
}

// SaveFS is Save with the I/O routed through an explicit filesystem,
// the seam the fault-injection matrix drives.
func SaveFS(fsys storage.FS, path string, s *Snapshot) (int64, error) {
	data := s.Marshal()
	tmp := path + storage.TmpSuffix
	f, err := stage(fsys, tmp, data)
	if err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	return int64(len(data)), nil
}

// stage creates tmp and writes and fsyncs data through it, returning the
// open handle. On failure tmp is closed and removed.
func stage(fsys storage.FS, tmp string, data []byte) (storage.File, error) {
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return f, nil
}

// Log is a checkpoint log being written: the handle its base was staged
// through, kept open after the rename so that delta segments reach the
// renamed file through it (and a fault injected on the staging path
// reaches them too).
type Log struct {
	f    storage.File
	last uint64 // trailer hash of the newest segment
}

// Create writes s as the base of a new log at path, exactly as Save
// writes a snapshot — staged at path+".tmp", fsynced, renamed over path
// — but keeps the file open for Append. It returns the bytes written.
func Create(fsys storage.FS, path string, s *Snapshot, each ForEach) (*Log, int64, error) {
	data := s.encode(each, false, 0)
	tmp := path + storage.TmpSuffix
	f, err := stage(fsys, tmp, data)
	if err != nil {
		return nil, 0, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	return &Log{f: f, last: trailerHash(data)}, int64(len(data)), nil
}

// Append writes s as a delta segment: its shards must hold only the
// records added since the previous segment's cut. The segment is
// fsynced before Append returns the bytes written. After a failure the
// file may end in a torn segment, which Load drops; the log must then be
// closed and the next cut written whole with Create.
func (l *Log) Append(s *Snapshot, each ForEach) (int64, error) {
	data := s.encode(each, true, l.last)
	if _, err := l.f.Write(data); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	l.last = trailerHash(data)
	return int64(len(data)), nil
}

// Close releases the log's file. Every segment was fsynced when it was
// written, so there is nothing left to make durable.
func (l *Log) Close() error {
	return l.f.Close()
}

// --- Unmarshalling ---

// reader walks the framed sections of a checkpoint image.
type reader struct {
	data []byte
	off  int
}

// section reads the next section frame, verifying its checksum.
func (r *reader) section() (name string, payload []byte, payOff int, err error) {
	if r.off >= len(r.data) {
		return "", nil, 0, fmt.Errorf("checkpoint: truncated: expected a section at offset %d", r.off)
	}
	nameLen := int(r.data[r.off])
	p := r.off + 1
	if p+nameLen > len(r.data) {
		return "", nil, 0, fmt.Errorf("checkpoint: truncated section name at offset %d", r.off)
	}
	name = string(r.data[p : p+nameLen])
	p += nameLen
	if p+8 > len(r.data) {
		return "", nil, 0, fmt.Errorf("checkpoint: section %q: truncated length", name)
	}
	plen := binary.LittleEndian.Uint64(r.data[p:])
	p += 8
	if plen > uint64(len(r.data)-p) {
		return "", nil, 0, fmt.Errorf("checkpoint: section %q: truncated payload (%d bytes claimed, %d available)", name, plen, len(r.data)-p)
	}
	payOff = p
	payload = r.data[p : p+int(plen)]
	p += int(plen)
	if p+4 > len(r.data) {
		return "", nil, 0, fmt.Errorf("checkpoint: section %q: truncated checksum", name)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(r.data[p:]); got != want {
		return "", nil, 0, fmt.Errorf("checkpoint: section %q: checksum mismatch (corrupt)", name)
	}
	r.off = p + 4
	return name, payload, payOff, nil
}

// Scan parses the section framing of a checkpoint image without
// interpreting payloads, verifying per-section checksums as it goes. It
// backs the corruption-injection tests and external inspection.
func Scan(data []byte) ([]Section, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("checkpoint: bad magic (not a checkpoint file)")
	}
	r := &reader{data: data, off: len(magic)}
	var out []Section
	for r.off < len(data) {
		name, payload, off, err := r.section()
		if err != nil {
			return nil, err
		}
		out = append(out, Section{Name: name, Off: off, Len: len(payload)})
		if name == "trailer" {
			if r.off != len(data) {
				return nil, fmt.Errorf("checkpoint: %d trailing bytes after trailer", len(data)-r.off)
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("checkpoint: truncated: no trailer section")
}

// Unmarshal decodes a checkpoint image, verifying every section
// checksum and the whole-file trailer hash. It reads one full image: a
// log of several is read by Load. The snapshot's frontier states share
// data's memory.
func Unmarshal(data []byte) (*Snapshot, error) {
	img, err := decode(data)
	if err != nil {
		return nil, err
	}
	if img.n != len(data) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after trailer", len(data)-img.n)
	}
	if img.delta {
		return nil, fmt.Errorf("checkpoint: a delta segment, not a full image")
	}
	return img.Snapshot, nil
}

// image is one decoded image of a log.
type image struct {
	*Snapshot
	delta bool
	// prev is a delta's predecessor's trailer hash, trailer this image's.
	prev, trailer uint64
	// n is the image's length in bytes.
	n int
}

// decode decodes the image at the start of data, verifying every section
// checksum and the whole-image trailer hash.
func decode(data []byte) (image, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
		return image{}, fmt.Errorf("checkpoint: bad magic (not a checkpoint file)")
	}
	r := &reader{data: data, off: len(magic)}
	s := &Snapshot{}
	img := image{Snapshot: s}

	// header
	name, payload, _, err := r.section()
	if err != nil {
		return image{}, err
	}
	if name != "header" {
		return image{}, fmt.Errorf("checkpoint: section %q where \"header\" expected", name)
	}
	d := &secDecoder{name: "header", buf: payload}
	if v := d.u32(); d.err == nil && v != Version {
		return image{}, fmt.Errorf("checkpoint: section \"header\": format version %d (this build reads %d)", v, Version)
	}
	s.OptionsFP = d.u64()
	s.Options = string(d.bytes())
	if d.err != nil {
		return image{}, d.err
	}
	if len(d.buf) != 0 {
		return image{}, fmt.Errorf("checkpoint: section \"header\": %d bytes left over", len(d.buf))
	}

	// meta
	name, payload, _, err = r.section()
	if err != nil {
		return image{}, err
	}
	if name != "meta" {
		return image{}, fmt.Errorf("checkpoint: section %q where \"meta\" expected", name)
	}
	d = &secDecoder{name: "meta", buf: payload}
	s.Depth = int(d.uvarint())
	s.States = d.varint()
	s.Transitions = d.varint()
	s.Ample = d.varint()
	s.Deadlocks = d.varint()
	flags := d.byte()
	s.Checkpoints = int(d.uvarint())
	nshards := d.uvarint()
	nfrontier := d.uvarint()
	if img.delta = flags&flagDelta != 0; img.delta {
		img.prev = d.u64()
	}
	if d.err != nil {
		return image{}, d.err
	}
	if len(d.buf) != 0 {
		return image{}, fmt.Errorf("checkpoint: section \"meta\": %d bytes left over", len(d.buf))
	}
	if flags&flagFingerprints != 0 {
		return image{}, fmt.Errorf("checkpoint: an audit-mode checkpoint (meta flag 0x%x): its visited records carry fingerprints, which this build does not read; rerun from the start", flagFingerprints)
	}
	if s.States < 0 || s.Transitions < 0 || s.Ample < 0 || s.Deadlocks < 0 {
		return image{}, fmt.Errorf("checkpoint: section \"meta\": negative counter")
	}
	if nshards > 1<<20 || nfrontier > 1<<40 {
		return image{}, fmt.Errorf("checkpoint: section \"meta\": absurd shard/frontier count (%d/%d)", nshards, nfrontier)
	}

	// frontier
	name, payload, _, err = r.section()
	if err != nil {
		return image{}, err
	}
	if name != "frontier" {
		return image{}, fmt.Errorf("checkpoint: section %q where \"frontier\" expected", name)
	}
	d = &secDecoder{name: "frontier", buf: payload}
	s.Frontier = make([][]byte, 0, nfrontier)
	for i := uint64(0); i < nfrontier; i++ {
		s.Frontier = append(s.Frontier, d.bytes())
		if d.err != nil {
			return image{}, fmt.Errorf("checkpoint: section \"frontier\": state %d: %w", i, d.err)
		}
	}
	if len(d.buf) != 0 {
		return image{}, fmt.Errorf("checkpoint: section \"frontier\": %d bytes left over", len(d.buf))
	}

	// shards
	s.Shards = make([]Shard, nshards)
	for i := uint64(0); i < nshards; i++ {
		want := fmt.Sprintf("shard-%d", i)
		name, payload, _, err = r.section()
		if err != nil {
			return image{}, err
		}
		if name != want {
			return image{}, fmt.Errorf("checkpoint: section %q where %q expected", name, want)
		}
		d = &secDecoder{name: want, buf: payload}
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.buf)) {
			return image{}, fmt.Errorf("checkpoint: section %q: %d entries exceed payload", want, n)
		}
		sh := &s.Shards[i]
		sh.Hashes = make([]uint64, 0, n)
		sh.Parents = make([]uint64, 0, n)
		sh.EIdxs = make([]int32, 0, n)
		for j := uint64(0); j < n; j++ {
			sh.Hashes = append(sh.Hashes, d.u64())
			sh.Parents = append(sh.Parents, d.u64())
			sh.EIdxs = append(sh.EIdxs, int32(d.varint()))
			if d.err != nil {
				return image{}, fmt.Errorf("checkpoint: section %q: entry %d: %w", want, j, d.err)
			}
		}
		if len(d.buf) != 0 {
			return image{}, fmt.Errorf("checkpoint: section %q: %d bytes left over", want, len(d.buf))
		}
	}

	// trailer: whole-file hash over every byte before the trailer frame.
	trailerStart := r.off
	name, payload, _, err = r.section()
	if err != nil {
		return image{}, err
	}
	if name != "trailer" {
		return image{}, fmt.Errorf("checkpoint: section %q where \"trailer\" expected", name)
	}
	if len(payload) != 8 {
		return image{}, fmt.Errorf("checkpoint: section \"trailer\": %d-byte payload (want 8)", len(payload))
	}
	img.trailer = binary.LittleEndian.Uint64(payload)
	if hash64(data[:trailerStart]) != img.trailer {
		return image{}, fmt.Errorf("checkpoint: whole-file hash mismatch (framing corrupt)")
	}
	img.n = r.off
	return img, nil
}

// Load reads and verifies the checkpoint log at path and returns the
// snapshot of its last cut that verifies: the union of its segments.
func Load(path string) (*Snapshot, error) {
	return LoadFS(storage.OSFS{}, path)
}

// LoadFS is Load through an explicit filesystem.
func LoadFS(fsys storage.FS, path string) (*Snapshot, error) {
	data, err := storage.ReadFile(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return readLog(data)
}

// readLog decodes a log: its base, which must verify, then every segment
// up to the first that does not. That one and the rest of the file are a
// damaged tail — a torn append, or bytes hurt since — and are dropped.
func readLog(data []byte) (*Snapshot, error) {
	base, err := decode(data)
	if err != nil {
		return nil, err
	}
	if base.delta {
		return nil, fmt.Errorf("checkpoint: the log begins with a delta segment, not a full image")
	}
	segs := []image{base}
	dropped := 0
	for off := base.n; off < len(data); {
		img, err := decode(data[off:])
		if err != nil {
			// Every image starts with the magic: count the ones the
			// damaged tail still holds after the damaged image itself.
			dropped = 1 + bytes.Count(data[off+1:], magic[:])
			break
		}
		segs = append(segs, img)
		off += img.n
	}
	s, err := union(segs)
	if err != nil {
		return nil, err
	}
	s.Dropped = dropped
	return s, nil
}

// union merges a log's segments into the snapshot of the last one's cut:
// its frontier and counters, and every segment's visited records.
func union(segs []image) (*Snapshot, error) {
	base, last := segs[0], segs[len(segs)-1]
	if len(segs) == 1 {
		return base.Snapshot, nil
	}
	var records int64
	for k, g := range segs {
		if k > 0 && !g.delta {
			return nil, fmt.Errorf("checkpoint: segment %d is a full image inside a log", k)
		}
		if g.OptionsFP != base.OptionsFP || g.Options != base.Options ||
			len(g.Shards) != len(base.Shards) {
			return nil, fmt.Errorf("checkpoint: segment %d was written by a different run", k)
		}
		for _, sh := range g.Shards {
			records += int64(len(sh.Hashes))
		}
	}
	if records != last.States {
		return nil, fmt.Errorf("checkpoint: the log's %d segments hold %d visited records, its last cut counts %d states (a segment is missing or spliced in)",
			len(segs), records, last.States)
	}
	for k := 1; k < len(segs); k++ {
		if segs[k].prev != segs[k-1].trailer {
			return nil, fmt.Errorf("checkpoint: segment %d does not follow segment %d", k, k-1)
		}
	}
	s := *last.Snapshot
	s.Shards = make([]Shard, len(base.Shards))
	for i := range s.Shards {
		sh, err := mergeShard(segs, i)
		if err != nil {
			return nil, err
		}
		s.Shards[i] = sh
	}
	return &s, nil
}

// mergeShard merges shard i of every segment, each in hash order, into
// one: pairs of runs are merged until one is left.
func mergeShard(segs []image, i int) (Shard, error) {
	runs := make([]Shard, len(segs))
	for k, g := range segs {
		runs[k] = g.Shards[i]
	}
	for len(runs) > 1 {
		next := runs[:0:0]
		for k := 0; k+1 < len(runs); k += 2 {
			m, err := mergeRuns(&runs[k], &runs[k+1])
			if err != nil {
				return Shard{}, fmt.Errorf("checkpoint: shard %d %w", i, err)
			}
			next = append(next, m)
		}
		if len(runs)%2 == 1 {
			next = append(next, runs[len(runs)-1])
		}
		runs = next
	}
	return runs[0], nil
}

// mergeRuns merges two shards in hash order into one.
func mergeRuns(a, b *Shard) (Shard, error) {
	n := len(a.Hashes) + len(b.Hashes)
	out := Shard{Hashes: make([]uint64, 0, n), Parents: make([]uint64, 0, n), EIdxs: make([]int32, 0, n)}
	take := func(s *Shard, j int) {
		out.Hashes = append(out.Hashes, s.Hashes[j])
		out.Parents = append(out.Parents, s.Parents[j])
		out.EIdxs = append(out.EIdxs, s.EIdxs[j])
	}
	x, y := 0, 0
	for x < len(a.Hashes) || y < len(b.Hashes) {
		switch {
		case y == len(b.Hashes) || x < len(a.Hashes) && a.Hashes[x] < b.Hashes[y]:
			take(a, x)
			x++
		case x == len(a.Hashes) || b.Hashes[y] < a.Hashes[x]:
			take(b, y)
			y++
		default:
			return Shard{}, fmt.Errorf("holds hash %016x in two segments", a.Hashes[x])
		}
	}
	return out, nil
}

// secDecoder reads varint-packed fields from one section payload,
// latching the first error with the section name attached.
type secDecoder struct {
	name string
	buf  []byte
	err  error
}

func (d *secDecoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: section %q: %s", d.name, msg)
	}
}

func (d *secDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail("truncated byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *secDecoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 4 {
		d.fail("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *secDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *secDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.buf)
	if k <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.buf = d.buf[k:]
	return v
}

func (d *secDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Varint(d.buf)
	if k <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.buf = d.buf[k:]
	return v
}

func (d *secDecoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail(fmt.Sprintf("byte string of %d exceeds %d-byte payload", n, len(d.buf)))
		return nil
	}
	out := d.buf[:n:n]
	d.buf = d.buf[n:]
	return out
}

// Package persist is the durability layer under the serving stack: a
// versioned, checksummed on-disk container for the flat int32 arrays the
// decomposition and query index are made of, and a write-ahead journal
// for the mutation delta queue. ROADMAP item 3's observation drives the
// design — bctree.Index and the CSR graph are already flat int32 arrays,
// so a restart should memory-map them back in O(1) instead of paying a
// rebuild.
//
// # Snapshot container
//
// A snapshot file is a fixed header, a caller-opaque meta blob (JSON in
// practice), a section directory, and the sections — each section one
// little-endian int32 array, 64-byte aligned:
//
//	header  = "FBCCSNP1" | u32 format | u32 sectionCount | u32 metaLen
//	        | u64 fileSize | u32 metaCRC | u32 dirCRC | u32 headerCRC
//	dir     = sectionCount × { u32 id | u32 count | u64 off | u32 crc }
//	section = count × i32 (little-endian), 64-byte aligned
//
// Every checksum is CRC32-C. The header checks itself (headerCRC covers
// the preceding 36 bytes), the directory and meta are checked eagerly on
// open, and each section carries its own CRC so validation can be lazy:
// OpenMapped maps the file and returns immediately; Verify walks the
// sections when the caller wants the integrity proof (at open with
// verify-on-load, or from a background goroutine while the snapshot
// already serves).
//
// Durability follows the classic temp-fsync-rename protocol: WriteSnapshot
// writes path.tmp, fsyncs it, renames it over path, and fsyncs the
// directory, so a crash at any point leaves either the old snapshot or
// the new one — never a torn file. Readers bound every allocation by the
// declared file size before trusting any length field, the same hostile-
// input discipline as internal/wire.
//
// # Journal
//
// The write-ahead journal (Journal) is an append-only file of length-
// prefixed, CRC-framed mutation records. A record is atomic: replay
// either decodes it fully or truncates the file at its start, so a crash
// mid-append loses at most the unacknowledged tail. See journal.go.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/faultpoint"
)

// Fault-injection points on the snapshot write path (see
// internal/faultpoint): armed faults simulate a failing disk, and the
// store must degrade durability without dropping a query or an
// acknowledgment.
const (
	// FaultWrite fires before the snapshot temp file is written.
	FaultWrite = "persist.write"
	// FaultFsync fires before the temp file is fsynced.
	FaultFsync = "persist.fsync"
	// FaultRename fires before the atomic rename publishes the snapshot.
	FaultRename = "persist.rename"
)

// Format geometry and hostile-input bounds. The caps are far above any
// legitimate snapshot and far below an allocation attack: a lying header
// costs at most one bounded check, never an unbounded make.
const (
	headerSize    = 40
	dirEntrySize  = 20
	sectionAlign  = 64
	formatVersion = 1

	// MaxMeta bounds the meta blob; MaxSections the directory.
	MaxMeta     = 1 << 20
	MaxSections = 4096
)

var magic = [8]byte{'F', 'B', 'C', 'C', 'S', 'N', 'P', '1'}

// castagnoli is the CRC32-C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by every structural snapshot decode error: bad
// magic, bad checksum, truncated file, out-of-bounds directory entry.
var ErrCorrupt = errors.New("snapshot corrupt")

// Section is one named int32 array of a snapshot. IDs are caller-defined
// and must be unique within a snapshot.
type Section struct {
	ID   uint32
	Data []int32
}

// align64 rounds n up to the next 64-byte boundary.
func align64(n int64) int64 { return (n + sectionAlign - 1) &^ (sectionAlign - 1) }

// WriteSnapshot serializes meta and sections into a snapshot container at
// path, using the temp-fsync-rename protocol so the file named path is
// always a complete snapshot (the previous one until the instant of the
// rename, the new one after). It returns the bytes written.
func WriteSnapshot(path string, meta []byte, sections []Section) (int64, error) {
	if len(meta) > MaxMeta {
		return 0, fmt.Errorf("persist: meta blob %d bytes exceeds %d", len(meta), MaxMeta)
	}
	if len(sections) > MaxSections {
		return 0, fmt.Errorf("persist: %d sections exceed %d", len(sections), MaxSections)
	}
	if err := faultpoint.Check(FaultWrite); err != nil {
		return 0, fmt.Errorf("persist: write %s: %w", path, err)
	}

	// Layout: header, meta, aligned directory, aligned sections.
	dirOff := align64(headerSize + int64(len(meta)))
	off := align64(dirOff + int64(len(sections)*dirEntrySize))
	dir := make([]byte, len(sections)*dirEntrySize)
	for i, s := range sections {
		e := dir[i*dirEntrySize:]
		binary.LittleEndian.PutUint32(e[0:4], s.ID)
		binary.LittleEndian.PutUint32(e[4:8], uint32(len(s.Data)))
		binary.LittleEndian.PutUint64(e[8:16], uint64(off))
		binary.LittleEndian.PutUint32(e[16:20], crcInt32s(s.Data))
		off = align64(off + int64(len(s.Data))*4)
	}
	fileSize := off

	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], formatVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(sections)))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(meta)))
	binary.LittleEndian.PutUint64(hdr[20:28], uint64(fileSize))
	binary.LittleEndian.PutUint32(hdr[28:32], crc32.Checksum(meta, castagnoli))
	binary.LittleEndian.PutUint32(hdr[32:36], crc32.Checksum(dir, castagnoli))
	binary.LittleEndian.PutUint32(hdr[36:40], crc32.Checksum(hdr[:36], castagnoli))

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	// One contiguous write for header+meta, then the aligned directory
	// and sections with explicit zero padding; pwrite-by-offset keeps the
	// padding logic in one place.
	ok := false
	defer func() {
		f.Close()
		if !ok {
			os.Remove(tmp)
		}
	}()
	if _, err := f.Write(hdr); err != nil {
		return 0, err
	}
	if _, err := f.Write(meta); err != nil {
		return 0, err
	}
	if _, err := f.WriteAt(dir, dirOff); err != nil {
		return 0, err
	}
	pos := align64(dirOff + int64(len(dir)))
	for _, s := range sections {
		if _, err := f.WriteAt(int32Bytes(s.Data), pos); err != nil {
			return 0, err
		}
		pos = align64(pos + int64(len(s.Data))*4)
	}
	// The final section may end short of its aligned fileSize; extend so
	// fileSize is literal truth (readers cross-check it against stat).
	if err := f.Truncate(fileSize); err != nil {
		return 0, err
	}
	if err := faultpoint.Check(FaultFsync); err != nil {
		return 0, fmt.Errorf("persist: fsync %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := faultpoint.Check(FaultRename); err != nil {
		return 0, fmt.Errorf("persist: rename %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	ok = true
	syncDir(filepath.Dir(path))
	return fileSize, nil
}

// syncDir fsyncs a directory so a rename into it is durable. Errors are
// ignored: some filesystems refuse directory fsync, and the rename itself
// already happened.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// crcInt32s checksums an int32 array as its little-endian byte image —
// the exact bytes the section occupies on disk.
func crcInt32s(a []int32) uint32 {
	return crc32.Checksum(int32Bytes(a), castagnoli)
}

// Package wal gives the catalog sealed-at-rest durability: a
// write-ahead log of catalog mutations, periodic whole-catalog
// snapshots, and crash recovery that replays the WAL tail over the
// latest snapshot.
//
// Everything secret on disk is ciphertext under the repository's
// crypto layer. A log record's metadata (operation, post-operation
// version, table name, row count) is sealed as one Seal blob; the rows
// themselves are sealed in the same 16-entries-per-ciphertext blocks
// the engine's BlockEncrypted stores use (SealRange), so the on-disk
// unit of a durable table equals the in-memory sealed unit. Only
// framing — lengths, a CRC32, file magic and version counters — is
// plaintext, and those are public metadata in this model (row counts
// and versions are not secret; contents and keys are).
//
// The failure model follows the usual WAL discipline: records are
// length-prefixed and CRC-summed, appends are single writes fsynced on
// commit, and recovery distinguishes a torn tail (the file ends
// mid-record: the crash happened during the final append, which was
// never acknowledged — discard it and continue) from mid-file or
// checksum damage (bytes that were once acknowledged are wrong: stop
// with a typed *TailError rather than guess).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/fault"
	"oblivjoin/internal/table"
)

// Op identifies a logged catalog mutation. Branch and Restore are
// logged as Register/Replace of materialized rows, so replay needs no
// history.
type Op byte

const (
	OpRegister Op = 1
	OpReplace  Op = 2
	OpDrop     Op = 3
)

func (o Op) String() string {
	switch o {
	case OpRegister:
		return "register"
	case OpReplace:
		return "replace"
	case OpDrop:
		return "drop"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Record is one logged catalog mutation. Version is the catalog
// version after applying the record; replay verifies the sequence is
// dense, so a missing or reordered record is detected as corruption.
type Record struct {
	Op      Op
	Version uint64
	Name    string
	Rows    []table.Row // nil for OpDrop
}

// Typed recovery errors. A *TailError wraps one of these (or
// crypto.ErrAuth) and adds the file position, so callers can both
// branch on the class (errors.Is) and report exactly where the damage
// sits.
var (
	// ErrTruncated: the file ends mid-record — the torn-tail signature
	// of a crash during the final, unacknowledged append.
	ErrTruncated = errors.New("wal: truncated record")
	// ErrChecksum: a record's CRC32 does not match its body.
	ErrChecksum = errors.New("wal: record checksum mismatch")
	// ErrFormat: structurally invalid bytes — bad magic, impossible
	// lengths, or a version sequence break.
	ErrFormat = errors.New("wal: malformed record")
)

// TailError reports damage found while reading a WAL or snapshot file:
// which file, at what byte offset, at which record index, and the
// damage class (ErrTruncated, ErrChecksum, ErrFormat, or an
// authentication failure wrapping crypto.ErrAuth).
type TailError struct {
	Path   string
	Offset int64 // byte offset of the damaged frame
	Index  int   // 0-based record index of the damaged frame
	Cause  error
}

func (e *TailError) Error() string {
	return fmt.Sprintf("wal: %s: record %d at offset %d: %v", e.Path, e.Index, e.Offset, e.Cause)
}

func (e *TailError) Unwrap() error { return e.Cause }

// File layout. Every durable file opens with a 16-byte plaintext
// header — 8 bytes of magic and the u64 base catalog version — then
// zero or more frames:
//
//	u32 bodyLen | u32 crc32(body) | body
//	body = u32 sealedMetaLen | sealedMeta | sealedRows
//
// sealedMeta (one Seal blob) decrypts to
//
//	u8 op | u64 version | u32 rowCount | u16 nameLen | name
//
// and sealedRows is ceil(rowCount/16) SealRange blocks of 16 encoded
// rows each (zero-padded in the final block before sealing).
const (
	logMagic  = "OWALLOG1"
	snapMagic = "OWALSNP1"

	headerLen = 16
	frameHdr  = 8 // bodyLen + crc

	// blockRows matches the BlockEncrypted store unit: 16 entries per
	// ciphertext, so a durable table's sealed blocks equal the
	// engine's in-memory sealed blocks.
	blockRows = 16
	blockPt   = blockRows * table.RowSize

	// maxBody bounds a single frame (1 GiB) so a corrupt length prefix
	// cannot drive a giant allocation.
	maxBody = 1 << 30
)

// sealedRowsLen is the on-disk size of a table of n rows.
func sealedRowsLen(n int) int {
	blocks := (n + blockRows - 1) / blockRows
	return blocks * crypto.SealedLen(blockPt)
}

// encodeFrame appends one framed record to buf and returns the
// extended slice.
func encodeFrame(buf []byte, cipher *crypto.Cipher, rec Record) ([]byte, error) {
	if rec.Op != OpRegister && rec.Op != OpReplace && rec.Op != OpDrop {
		return nil, fmt.Errorf("%w: unknown op %d", ErrFormat, rec.Op)
	}
	if len(rec.Name) > 1<<15 {
		return nil, fmt.Errorf("%w: table name too long", ErrFormat)
	}
	meta := make([]byte, 15+len(rec.Name))
	meta[0] = byte(rec.Op)
	binary.LittleEndian.PutUint64(meta[1:], rec.Version)
	binary.LittleEndian.PutUint32(meta[9:], uint32(len(rec.Rows)))
	binary.LittleEndian.PutUint16(meta[13:], uint16(len(rec.Name)))
	copy(meta[15:], rec.Name)
	sealedMeta := make([]byte, crypto.SealedLen(len(meta)))
	cipher.Seal(sealedMeta, meta)

	rowsLen := sealedRowsLen(len(rec.Rows))
	bodyLen := 4 + len(sealedMeta) + rowsLen
	start := len(buf)
	buf = append(buf, make([]byte, frameHdr+bodyLen)...)
	body := buf[start+frameHdr:]
	binary.LittleEndian.PutUint32(body, uint32(len(sealedMeta)))
	copy(body[4:], sealedMeta)
	if rowsLen > 0 {
		blocks := (len(rec.Rows) + blockRows - 1) / blockRows
		plain := make([]byte, blocks*blockPt)
		copy(plain, table.EncodeRows(rec.Rows))
		cipher.SealRange(body[4+len(sealedMeta):], plain, blockPt)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(body))
	return buf, nil
}

// decodeFrame parses one frame starting at data[off:]. It returns the
// record and the offset one past the frame. A nil error with ok=false
// means data ends exactly at off (clean EOF).
func decodeFrame(cipher *crypto.Cipher, data []byte, off int) (rec Record, next int, err error) {
	if len(data)-off < frameHdr {
		return Record{}, 0, ErrTruncated
	}
	bodyLen := int(binary.LittleEndian.Uint32(data[off:]))
	if bodyLen < 4 || bodyLen > maxBody {
		return Record{}, 0, fmt.Errorf("%w: frame length %d", ErrFormat, bodyLen)
	}
	wantCRC := binary.LittleEndian.Uint32(data[off+4:])
	if len(data)-off-frameHdr < bodyLen {
		return Record{}, 0, ErrTruncated
	}
	body := data[off+frameHdr : off+frameHdr+bodyLen]
	if crc32.ChecksumIEEE(body) != wantCRC {
		return Record{}, 0, ErrChecksum
	}
	sealedMetaLen := int(binary.LittleEndian.Uint32(body))
	if sealedMetaLen < crypto.SealedLen(15) || sealedMetaLen > bodyLen-4 {
		return Record{}, 0, fmt.Errorf("%w: meta length %d", ErrFormat, sealedMetaLen)
	}
	sealedMeta := body[4 : 4+sealedMetaLen]
	meta := make([]byte, sealedMetaLen-crypto.Overhead)
	if err := cipher.Open(meta, sealedMeta); err != nil {
		return Record{}, 0, fmt.Errorf("record metadata: %w", err)
	}
	op := Op(meta[0])
	version := binary.LittleEndian.Uint64(meta[1:])
	rowCount := int(binary.LittleEndian.Uint32(meta[9:]))
	nameLen := int(binary.LittleEndian.Uint16(meta[13:]))
	if len(meta) != 15+nameLen {
		return Record{}, 0, fmt.Errorf("%w: meta name length", ErrFormat)
	}
	name := string(meta[15:])
	sealedRows := body[4+sealedMetaLen:]
	if len(sealedRows) != sealedRowsLen(rowCount) {
		return Record{}, 0, fmt.Errorf("%w: row payload %d bytes, want %d for %d rows",
			ErrFormat, len(sealedRows), sealedRowsLen(rowCount), rowCount)
	}
	rec = Record{Op: op, Version: version, Name: name}
	if rowCount > 0 {
		blocks := len(sealedRows) / crypto.SealedLen(blockPt)
		plain := make([]byte, blocks*blockPt)
		if err := cipher.OpenRange(plain, sealedRows, blockPt); err != nil {
			return Record{}, 0, fmt.Errorf("record rows: %w", err)
		}
		rec.Rows = table.DecodeRows(plain, rowCount)
	}
	return rec, off + frameHdr + bodyLen, nil
}

func writeHeader(f fault.File, magic string, base uint64) error {
	hdr := make([]byte, headerLen)
	copy(hdr, magic)
	binary.LittleEndian.PutUint64(hdr[8:], base)
	_, err := f.Write(hdr)
	return err
}

func parseHeader(path, magic string, data []byte) (uint64, error) {
	if len(data) < headerLen {
		return 0, &TailError{Path: path, Offset: 0, Index: 0, Cause: ErrTruncated}
	}
	if string(data[:8]) != magic {
		return 0, &TailError{Path: path, Offset: 0, Index: 0,
			Cause: fmt.Errorf("%w: bad magic %q", ErrFormat, data[:8])}
	}
	return binary.LittleEndian.Uint64(data[8:16]), nil
}

// Log is an append-only WAL file open for writing. Append buffers one
// frame and writes it in a single write syscall; Sync fsyncs — a
// commit is Append+Sync, and nothing is acknowledged before Sync
// returns.
type Log struct {
	path string
	fs   fault.FS
	f    fault.File
	base uint64
	n    int
	size int64
	buf  []byte
	ciph *crypto.Cipher
}

// CreateFS creates (or truncates) a WAL at path through fsys (nil
// selects the real OS; a fault.FS injects faults) with the given base
// version and fsyncs the header, so an empty log is itself durable.
func CreateFS(fsys fault.FS, path string, cipher *crypto.Cipher, base uint64) (*Log, error) {
	fsys = fault.Or(fsys)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, err
	}
	if err := writeHeader(f, logMagic, base); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{path: path, fs: fsys, f: f, base: base, size: headerLen, ciph: cipher}, nil
}

// openAppend reopens an existing, already-validated WAL for appending.
// size must be the validated length (replay's goodSize) and n the
// number of valid records.
func openAppend(fsys fault.FS, path string, cipher *crypto.Cipher, base uint64, size int64, n int) (*Log, error) {
	fsys = fault.Or(fsys)
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, err
	}
	return &Log{path: path, fs: fsys, f: f, base: base, size: size, n: n, buf: nil, ciph: cipher}, nil
}

// Append writes one framed record (unsynced; call Sync to commit).
func (l *Log) Append(rec Record) error {
	buf, err := encodeFrame(l.buf[:0], l.ciph, rec)
	if err != nil {
		return err
	}
	l.buf = buf[:0]
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.size += int64(len(buf))
	l.n++
	return nil
}

// Sync fsyncs all appended records to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// RollbackTo rewinds the log to a prior (size, records) point captured
// before a failed commit: the file is truncated — discarding a partial
// frame from a short write, or a fully written but never fsynced
// record — so a retry never duplicates or corrupts records. The file
// stays open in append mode; subsequent writes continue at the
// truncated end.
func (l *Log) RollbackTo(size int64, n int) error {
	if err := l.fs.Truncate(l.path, size); err != nil {
		return err
	}
	l.size, l.n = size, n
	return nil
}

// Close closes the file (without a final Sync; callers sync first).
func (l *Log) Close() error { return l.f.Close() }

// Size returns the current file length in bytes.
func (l *Log) Size() int64 { return l.size }

// Records returns how many records the log holds.
func (l *Log) Records() int { return l.n }

// Base returns the catalog version the log applies over.
func (l *Log) Base() uint64 { return l.base }

// ReplayFileFS reads the WAL at path through fsys (nil selects the real
// OS; a fault.FS injects faults), invoking fn for each intact record
// in order. It returns the header's base version, the count of intact
// records, and goodSize — the byte offset one past the last intact
// record. tail is non-nil when the file ends in damage: its Cause is
// ErrTruncated for a torn tail (safe to truncate to goodSize and keep
// going) and ErrChecksum/ErrFormat/crypto.ErrAuth for damage to bytes
// that were once acknowledged. An error from fn aborts the replay.
func ReplayFileFS(fsys fault.FS, path string, cipher *crypto.Cipher, fn func(Record) error) (base uint64, n int, goodSize int64, tail *TailError, err error) {
	data, err := fault.Or(fsys).ReadFile(path)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	base, herr := parseHeader(path, logMagic, data)
	if herr != nil {
		var te *TailError
		if errors.As(herr, &te) && errors.Is(te, ErrTruncated) {
			// Short or empty file: a crash between create and the
			// header sync. The whole file is a torn tail.
			return 0, 0, 0, te, nil
		}
		return 0, 0, 0, nil, herr
	}
	off := headerLen
	for off < len(data) {
		rec, next, derr := decodeFrame(cipher, data, off)
		if derr != nil {
			return base, n, int64(off), &TailError{Path: path, Offset: int64(off), Index: n, Cause: derr}, nil
		}
		if err := fn(rec); err != nil {
			return base, n, int64(off), nil, err
		}
		n++
		off = next
	}
	return base, n, int64(off), nil, nil
}

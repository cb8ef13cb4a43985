package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/table"
)

func testCipher(t *testing.T) *crypto.Cipher {
	t.Helper()
	c, _, err := crypto.NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mkRows(t *testing.T, n int, tag byte) []table.Row {
	t.Helper()
	rows := make([]table.Row, n)
	for i := range rows {
		d, err := table.MakeData(string([]byte{tag, byte('0' + i%10)}))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = table.Row{J: uint64(i * 3), D: d}
	}
	return rows
}

// TestFrameRoundTrip: encode/decode across ops, row counts that do and
// do not fill the 16-row sealed block, and the rowless drop.
func TestFrameRoundTrip(t *testing.T) {
	ciph := testCipher(t)
	recs := []Record{
		{Op: OpRegister, Version: 1, Name: "users", Rows: mkRows(t, 16, 'a')},
		{Op: OpReplace, Version: 2, Name: "users", Rows: mkRows(t, 17, 'b')},
		{Op: OpRegister, Version: 3, Name: "empty", Rows: []table.Row{}},
		{Op: OpDrop, Version: 4, Name: "users"},
		{Op: OpReplace, Version: 5, Name: "x", Rows: mkRows(t, 1, 'c')},
	}
	var buf []byte
	var err error
	for _, rec := range recs {
		buf, err = encodeFrame(buf, ciph, rec)
		if err != nil {
			t.Fatalf("encode %v: %v", rec.Op, err)
		}
	}
	off := 0
	for i, want := range recs {
		got, next, err := decodeFrame(ciph, buf, off)
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if got.Op != want.Op || got.Version != want.Version || got.Name != want.Name {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("record %d: %d rows, want %d", i, len(got.Rows), len(want.Rows))
		}
		for j := range want.Rows {
			if got.Rows[j] != want.Rows[j] {
				t.Fatalf("record %d row %d = %v, want %v", i, j, got.Rows[j], want.Rows[j])
			}
		}
		off = next
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

// TestFrameRejectsBadOp: encoding an unknown op is a format error, not
// bytes on disk.
func TestFrameRejectsBadOp(t *testing.T) {
	if _, err := encodeFrame(nil, testCipher(t), Record{Op: 9, Name: "t"}); !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

// writeLog creates a WAL with the given records and returns its path.
func writeLog(t *testing.T, ciph *crypto.Cipher, base uint64, recs []Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal-test.log")
	l, err := CreateFS(nil, path, ciph, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func threeRecords(t *testing.T) []Record {
	return []Record{
		{Op: OpRegister, Version: 8, Name: "t1", Rows: mkRows(t, 20, 'a')},
		{Op: OpReplace, Version: 9, Name: "t1", Rows: mkRows(t, 4, 'b')},
		{Op: OpDrop, Version: 10, Name: "t1"},
	}
}

// TestReplayRoundTrip: a synced log replays every record in order with
// the header's base version and a goodSize equal to the file length.
func TestReplayRoundTrip(t *testing.T) {
	ciph := testCipher(t)
	recs := threeRecords(t)
	path := writeLog(t, ciph, 7, recs)

	var got []Record
	base, n, goodSize, tail, err := ReplayFileFS(nil, path, ciph, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil || tail != nil {
		t.Fatalf("replay: err=%v tail=%v", err, tail)
	}
	if base != 7 || n != len(recs) {
		t.Fatalf("base=%d n=%d, want 7, %d", base, n, len(recs))
	}
	st, _ := os.Stat(path)
	if goodSize != st.Size() {
		t.Fatalf("goodSize = %d, file is %d", goodSize, st.Size())
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed records differ:\n got %+v\nwant %+v", got, recs)
	}
}

// TestReplayTornTail: a file cut mid-record yields the intact prefix
// plus a tail whose cause is ErrTruncated — the crash-during-append
// signature — with goodSize pointing at the damage.
func TestReplayTornTail(t *testing.T) {
	ciph := testCipher(t)
	recs := threeRecords(t)
	path := writeLog(t, ciph, 7, recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut 5 bytes into the final record's frame.
	offs := frameOffsets(t, ciph, data)
	cut := offs[len(offs)-1] + 5
	if err := os.WriteFile(path, data[:cut], 0o600); err != nil {
		t.Fatal(err)
	}

	n := 0
	base, cnt, goodSize, tail, err := ReplayFileFS(nil, path, ciph, func(Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if base != 7 || cnt != 2 || n != 2 {
		t.Fatalf("base=%d cnt=%d n=%d, want 7,2,2", base, cnt, n)
	}
	if tail == nil || !errors.Is(tail, ErrTruncated) {
		t.Fatalf("tail = %v, want ErrTruncated", tail)
	}
	if goodSize != int64(offs[len(offs)-1]) {
		t.Fatalf("goodSize = %d, want %d", goodSize, offs[len(offs)-1])
	}
	if tail.Index != 2 || tail.Offset != goodSize {
		t.Fatalf("tail position = record %d offset %d, want 2, %d", tail.Index, tail.Offset, goodSize)
	}
}

// TestReplayShortHeader: 0 < len < headerLen is a torn tail (crash
// between create and header sync), not a fatal error.
func TestReplayShortHeader(t *testing.T) {
	ciph := testCipher(t)
	for _, n := range []int{0, 1, headerLen - 1} {
		path := filepath.Join(t.TempDir(), "short.log")
		if err := os.WriteFile(path, make([]byte, n), 0o600); err != nil {
			t.Fatal(err)
		}
		base, cnt, good, tail, err := ReplayFileFS(nil, path, ciph, func(Record) error { return nil })
		if err != nil {
			t.Fatalf("len %d: err = %v", n, err)
		}
		if tail == nil || !errors.Is(tail, ErrTruncated) {
			t.Fatalf("len %d: tail = %v, want ErrTruncated", n, tail)
		}
		if base != 0 || cnt != 0 || good != 0 {
			t.Fatalf("len %d: base=%d cnt=%d good=%d", n, base, cnt, good)
		}
	}
}

// TestReplayBadMagic: a wrong magic is fatal corruption — recovery must
// not guess at a file that was never a WAL.
func TestReplayBadMagic(t *testing.T) {
	ciph := testCipher(t)
	path := filepath.Join(t.TempDir(), "bad.log")
	data := make([]byte, headerLen)
	copy(data, "NOTAWAL0")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	_, _, _, tail, err := ReplayFileFS(nil, path, ciph, func(Record) error { return nil })
	if tail != nil {
		t.Fatalf("tail = %v, want nil (fatal, not discardable)", tail)
	}
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

// TestReplayBitFlip: a flipped body byte fails the CRC before any
// decryption is attempted.
func TestReplayBitFlip(t *testing.T) {
	ciph := testCipher(t)
	recs := threeRecords(t)
	path := writeLog(t, ciph, 7, recs)
	data, _ := os.ReadFile(path)
	offs := frameOffsets(t, ciph, data)
	// Flip one byte inside the second record's body.
	data[offs[1]+frameHdr+10] ^= 0x40
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}

	_, cnt, goodSize, tail, err := ReplayFileFS(nil, path, ciph, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 1 {
		t.Fatalf("cnt = %d, want 1 (only the record before the damage)", cnt)
	}
	if tail == nil || !errors.Is(tail, ErrChecksum) {
		t.Fatalf("tail = %v, want ErrChecksum", tail)
	}
	if goodSize != int64(offs[1]) || tail.Index != 1 {
		t.Fatalf("damage at offset %d record %d, want %d record 1", goodSize, tail.Index, offs[1])
	}
}

// TestReplayAuthFailure: a flip with the CRC recomputed passes the
// integrity check but fails authenticated decryption — a tamper, not a
// disk error — surfacing crypto.ErrAuth.
func TestReplayAuthFailure(t *testing.T) {
	ciph := testCipher(t)
	recs := threeRecords(t)
	path := writeLog(t, ciph, 7, recs)
	data, _ := os.ReadFile(path)
	offs := frameOffsets(t, ciph, data)
	start := offs[1]
	bodyLen := int(binary.LittleEndian.Uint32(data[start:]))
	body := data[start+frameHdr : start+frameHdr+bodyLen]
	body[8] ^= 0x01 // inside sealedMeta
	binary.LittleEndian.PutUint32(data[start+4:], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}

	_, cnt, _, tail, err := ReplayFileFS(nil, path, ciph, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 1 || tail == nil || !errors.Is(tail, crypto.ErrAuth) {
		t.Fatalf("cnt=%d tail=%v, want 1 record and crypto.ErrAuth", cnt, tail)
	}
}

// TestReplayWrongKey: a log read with a different key fails
// authentication on the first record — sealed at rest means unreadable
// without the directory's master key.
func TestReplayWrongKey(t *testing.T) {
	path := writeLog(t, testCipher(t), 7, threeRecords(t))
	_, cnt, _, tail, err := ReplayFileFS(nil, path, testCipher(t), func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 0 || tail == nil || !errors.Is(tail, crypto.ErrAuth) {
		t.Fatalf("cnt=%d tail=%v, want 0 records and crypto.ErrAuth", cnt, tail)
	}
}

// TestSnapshotRoundTrip: written tables come back exactly, keyed by
// the snapshot version.
func TestSnapshotRoundTrip(t *testing.T) {
	ciph := testCipher(t)
	path := filepath.Join(t.TempDir(), "snap-test.snap")
	tables := map[string][]table.Row{
		"a":     mkRows(t, 33, 'a'),
		"b":     mkRows(t, 1, 'b'),
		"empty": {},
	}
	if err := WriteSnapshotFS(nil, path, ciph, 42, tables); err != nil {
		t.Fatal(err)
	}
	ver, got, err := ReadSnapshotFS(nil, path, ciph)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 42 {
		t.Fatalf("version = %d, want 42", ver)
	}
	if !reflect.DeepEqual(got, tables) {
		t.Fatalf("tables differ:\n got %v\nwant %v", got, tables)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestSnapshotTruncationIsCorruption: snapshots are renamed into place
// whole, so a truncated one is a typed error — never silent partial
// data.
func TestSnapshotTruncationIsCorruption(t *testing.T) {
	ciph := testCipher(t)
	path := filepath.Join(t.TempDir(), "snap-test.snap")
	if err := WriteSnapshotFS(nil, path, ciph, 3, map[string][]table.Row{"t": mkRows(t, 40, 'x')}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-7], 0o600); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadSnapshotFS(nil, path, ciph)
	var te *TailError
	if !errors.As(err, &te) || !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want *TailError wrapping ErrTruncated", err)
	}
}

// frameOffsets returns the byte offset of every frame in data.
func frameOffsets(t *testing.T, ciph *crypto.Cipher, data []byte) []int {
	t.Helper()
	var offs []int
	off := headerLen
	for off < len(data) {
		offs = append(offs, off)
		_, next, err := decodeFrame(ciph, data, off)
		if err != nil {
			t.Fatalf("frameOffsets: %v", err)
		}
		off = next
	}
	return offs
}

package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/fault"
	"oblivjoin/internal/table"
)

// A snapshot is a whole-catalog checkpoint at one version: the same
// sealed frame format as the WAL (one OpRegister record per table, all
// carrying the snapshot version), written to a temp file, fsynced, and
// atomically renamed into place. A snapshot file under its final name
// is therefore always complete — recovery never has to reason about a
// half-written snapshot, only about which WAL tail applies over it.

// WriteSnapshotFS atomically writes every table at version to path
// through fsys (nil selects the real OS; a fault.FS injects faults).
// Tables are written in sorted name order so snapshots of equal states
// are written deterministically.
func WriteSnapshotFS(fsys fault.FS, path string, cipher *crypto.Cipher, version uint64, tables map[string][]table.Row) error {
	fsys = fault.Or(fsys)
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)

	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp) // no-op after the rename succeeds
	if err := writeHeader(f, snapMagic, version); err != nil {
		f.Close()
		return err
	}
	var buf []byte
	for _, name := range names {
		buf, err = encodeFrame(buf[:0], cipher, Record{
			Op: OpRegister, Version: version, Name: name, Rows: tables[name],
		})
		if err != nil {
			f.Close()
			return err
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// ReadSnapshotFS loads the snapshot at path through fsys (nil selects
// the real OS; a fault.FS injects faults), returning its version and
// tables. Snapshots are atomically renamed into place, so any damage —
// including truncation — is real corruption and surfaces as a typed
// *TailError, never as silent partial data.
func ReadSnapshotFS(fsys fault.FS, path string, cipher *crypto.Cipher) (uint64, map[string][]table.Row, error) {
	data, err := fault.Or(fsys).ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	version, err := parseHeader(path, snapMagic, data)
	if err != nil {
		return 0, nil, err
	}
	tables := map[string][]table.Row{}
	off := headerLen
	n := 0
	for off < len(data) {
		rec, next, derr := decodeFrame(cipher, data, off)
		if derr != nil {
			return 0, nil, &TailError{Path: path, Offset: int64(off), Index: n, Cause: derr}
		}
		if rec.Op != OpRegister || rec.Version != version {
			return 0, nil, &TailError{Path: path, Offset: int64(off), Index: n,
				Cause: fmt.Errorf("%w: snapshot record op=%v version=%d, want register at %d",
					ErrFormat, rec.Op, rec.Version, version)}
		}
		if _, dup := tables[rec.Name]; dup {
			return 0, nil, &TailError{Path: path, Offset: int64(off), Index: n,
				Cause: fmt.Errorf("%w: duplicate table %q", ErrFormat, rec.Name)}
		}
		if rec.Rows == nil {
			rec.Rows = []table.Row{}
		}
		tables[rec.Name] = rec.Rows
		n++
		off = next
	}
	return version, tables, nil
}

// syncDir fsyncs a directory so a just-renamed or just-created entry
// is durable. Filesystems that reject directory fsync are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

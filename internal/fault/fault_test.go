package fault

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestPassthroughWhenDisarmed(t *testing.T) {
	in := NewInjector(nil, 1)
	dir := t.TempDir()
	f, err := in.CreateTemp(dir, "p-*")
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
	b, err := in.ReadFile(f.Name())
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if n := in.Injected(); n != 0 {
		t.Fatalf("Injected = %d with no rules armed", n)
	}
}

func TestScheduleAfterCount(t *testing.T) {
	in := NewInjector(nil, 1)
	// Fire EIO on the 2nd and 3rd matching syncs only.
	in.Arm(Rule{Op: OpSync, After: 1, Count: 2, Err: EIO})
	dir := t.TempDir()
	f, err := in.CreateTemp(dir, "s-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]bool, 5)
	for i := range got {
		got[i] = f.Sync() != nil
	}
	want := []bool{false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sync %d failed=%v, want %v (schedule After=1 Count=2)", i, got[i], want[i])
		}
	}
	if st := in.Stats(); st.Errors[OpSync] != 2 {
		t.Fatalf("Errors[sync] = %d, want 2", st.Errors[OpSync])
	}
}

func TestShortWrite(t *testing.T) {
	in := NewInjector(nil, 1)
	in.Arm(Rule{Op: OpWrite, Err: ENOSPC, ShortBy: 3})
	dir := t.TempDir()
	f, err := in.CreateTemp(dir, "w-*")
	if err != nil {
		t.Fatal(err)
	}
	n, werr := f.Write([]byte("0123456789"))
	f.Close()
	if n != 7 || !errors.Is(werr, ENOSPC) {
		t.Fatalf("short write = (%d, %v), want (7, ENOSPC)", n, werr)
	}
	// The truncated prefix really landed — the dangerous case a
	// consumer must detect and roll back.
	b, err := os.ReadFile(f.Name())
	if err != nil || string(b) != "0123456" {
		t.Fatalf("on-disk prefix = %q, %v", b, err)
	}
}

func TestBitFlipDeterministic(t *testing.T) {
	read := func(seed uint64) []byte {
		dir := t.TempDir()
		path := filepath.Join(dir, "blob")
		if err := os.WriteFile(path, []byte("abcdefgh"), 0o600); err != nil {
			t.Fatal(err)
		}
		in := NewInjector(nil, seed)
		in.Arm(Rule{Op: OpRead, FlipBit: true})
		b, err := in.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := read(42), read(42), read(43)
	if string(a) != string(b) {
		t.Fatalf("same seed produced different tampers: %q vs %q", a, b)
	}
	if string(a) == "abcdefgh" {
		t.Fatal("tamper rule flipped no bit")
	}
	if string(a) == string(c) {
		t.Fatalf("different seeds produced identical tampers: %q", a)
	}
}

func TestPathFilter(t *testing.T) {
	in := NewInjector(nil, 1)
	in.Arm(Rule{Op: OpRemove, Path: "wal", Err: EIO})
	if err := in.Remove(filepath.Join(t.TempDir(), "snap-1")); err == nil || errors.Is(err, EIO) {
		// Removing a nonexistent snapshot fails with ENOENT, not EIO:
		// the rule must not match a non-"wal" path.
		if errors.Is(err, EIO) {
			t.Fatal("path filter did not exclude snapshot path")
		}
	}
	if err := in.Remove(filepath.Join(t.TempDir(), "wal.log")); !errors.Is(err, EIO) {
		t.Fatalf("Remove(wal.log) = %v, want EIO", err)
	}
}

func TestDisarmAndConcurrency(t *testing.T) {
	in := NewInjector(nil, 7)
	in.Arm(Rule{Op: OpTruncate, Err: EIO})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = in.Truncate("/nonexistent/x", 0)
				_ = in.Injected()
			}
		}()
	}
	wg.Wait()
	if st := in.Stats(); st.Errors[OpTruncate] != 800 {
		t.Fatalf("Errors[truncate] = %d, want 800", st.Errors[OpTruncate])
	}
	in.Disarm()
	if err := in.Truncate("/nonexistent/x", 0); errors.Is(err, EIO) {
		t.Fatal("rule still firing after Disarm")
	}
}

func TestIsInjectable(t *testing.T) {
	for _, err := range []error{EIO, ENOSPC} {
		if !IsInjectable(err) {
			t.Fatalf("IsInjectable(%v) = false", err)
		}
	}
	if IsInjectable(errors.New("other")) {
		t.Fatal("IsInjectable matched a foreign error")
	}
}

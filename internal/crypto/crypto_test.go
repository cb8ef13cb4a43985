package crypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func newTestCipher(t *testing.T) *Cipher {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 7)
	}
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadKeyLength(t *testing.T) {
	if _, err := New(make([]byte, 16)); err == nil {
		t.Fatal("expected error for 16-byte master key")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	c := newTestCipher(t)
	f := func(pt []byte) bool {
		sealed := make([]byte, SealedLen(len(pt)))
		c.Seal(sealed, pt)
		out := make([]byte, len(pt))
		if err := c.Open(out, sealed); err != nil {
			return false
		}
		return bytes.Equal(out, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSealIsProbabilistic(t *testing.T) {
	c := newTestCipher(t)
	pt := []byte("the same plaintext")
	a := make([]byte, SealedLen(len(pt)))
	b := make([]byte, SealedLen(len(pt)))
	c.Seal(a, pt)
	c.Seal(b, pt)
	if bytes.Equal(a, b) {
		t.Fatal("two seals of equal plaintext produced equal ciphertexts")
	}
}

func TestOpenDetectsTampering(t *testing.T) {
	c := newTestCipher(t)
	pt := []byte("secret entry")
	sealed := make([]byte, SealedLen(len(pt)))
	c.Seal(sealed, pt)
	out := make([]byte, len(pt))
	for _, pos := range []int{0, 16, len(sealed) - 1} {
		mut := append([]byte(nil), sealed...)
		mut[pos] ^= 0x01
		if err := c.Open(out, mut); err != ErrAuth {
			t.Fatalf("tamper at %d: err = %v, want ErrAuth", pos, err)
		}
	}
}

func TestOpenTooShort(t *testing.T) {
	c := newTestCipher(t)
	if err := c.Open(nil, make([]byte, Overhead-1)); err == nil {
		t.Fatal("expected error for truncated ciphertext")
	}
}

func TestNewRandomDistinctKeys(t *testing.T) {
	_, k1, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, k2) {
		t.Fatal("NewRandom returned identical keys")
	}
	if len(k1) != 32 {
		t.Fatalf("key length = %d, want 32", len(k1))
	}
}

func TestCiphersWithDifferentKeysIncompatible(t *testing.T) {
	c1 := newTestCipher(t)
	c2, _, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("cross-key")
	sealed := make([]byte, SealedLen(len(pt)))
	c1.Seal(sealed, pt)
	out := make([]byte, len(pt))
	if err := c2.Open(out, sealed); err != ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
}

func TestSealedLen(t *testing.T) {
	if SealedLen(0) != Overhead {
		t.Fatalf("SealedLen(0) = %d, want %d", SealedLen(0), Overhead)
	}
	if SealedLen(40) != 40+Overhead {
		t.Fatalf("SealedLen(40) = %d", SealedLen(40))
	}
}

// refOpen is a reference Open built directly on the standard library's
// cipher.NewCTR and crypto/hmac, re-deriving the keys the way New does.
// It pins Seal's wire format: the hand-rolled CTR and HMAC inside the
// package must be bit-compatible with the canonical constructions.
func refOpen(t *testing.T, master, sealed []byte) ([]byte, error) {
	t.Helper()
	block, err := aes.NewCipher(master[:16])
	if err != nil {
		t.Fatal(err)
	}
	macKey := sha256.Sum256(master[16:])
	n := len(sealed) - Overhead
	mac := hmac.New(sha256.New, macKey[:])
	mac.Write(sealed[:aes.BlockSize+n])
	if !hmac.Equal(mac.Sum(nil), sealed[aes.BlockSize+n:]) {
		return nil, ErrAuth
	}
	out := make([]byte, n)
	cipher.NewCTR(block, sealed[:aes.BlockSize]).XORKeyStream(out, sealed[aes.BlockSize:aes.BlockSize+n])
	return out, nil
}

func TestSealMatchesReferenceConstruction(t *testing.T) {
	master := make([]byte, 32)
	for i := range master {
		master[i] = byte(i*13 + 5)
	}
	c, err := New(master)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 15, 16, 17, 64, 72, 100, 1152} {
		pt := make([]byte, n)
		for i := range pt {
			pt[i] = byte(i)
		}
		sealed := make([]byte, SealedLen(n))
		c.Seal(sealed, pt)
		out, err := refOpen(t, master, sealed)
		if err != nil {
			t.Fatalf("n=%d: reference open rejected Seal output: %v", n, err)
		}
		if !bytes.Equal(out, pt) {
			t.Fatalf("n=%d: reference open decrypted wrong plaintext", n)
		}
	}
}

func TestSealRangeOpenRangeRoundTrip(t *testing.T) {
	c := newTestCipher(t)
	for _, tc := range []struct{ k, ptLen int }{
		{0, 8}, {1, 72}, {3, 1}, {5, 72}, {16, 72}, {7, 1152}, {4, 16}, {2, 15},
	} {
		plain := make([]byte, tc.k*tc.ptLen)
		for i := range plain {
			plain[i] = byte(i * 31)
		}
		sealed := make([]byte, tc.k*SealedLen(tc.ptLen))
		c.SealRange(sealed, plain, tc.ptLen)
		out := make([]byte, len(plain))
		if err := c.OpenRange(out, sealed, tc.ptLen); err != nil {
			t.Fatalf("k=%d ptLen=%d: %v", tc.k, tc.ptLen, err)
		}
		if !bytes.Equal(out, plain) {
			t.Fatalf("k=%d ptLen=%d: round trip corrupted plaintext", tc.k, tc.ptLen)
		}
	}
}

func TestSealRangeRecordsOpenIndividually(t *testing.T) {
	c := newTestCipher(t)
	const k, ptLen = 6, 40
	plain := make([]byte, k*ptLen)
	for i := range plain {
		plain[i] = byte(i)
	}
	sealed := make([]byte, k*SealedLen(ptLen))
	c.SealRange(sealed, plain, ptLen)
	recLen := SealedLen(ptLen)
	for r := 0; r < k; r++ {
		out := make([]byte, ptLen)
		if err := c.Open(out, sealed[r*recLen:(r+1)*recLen]); err != nil {
			t.Fatalf("record %d: %v", r, err)
		}
		if !bytes.Equal(out, plain[r*ptLen:(r+1)*ptLen]) {
			t.Fatalf("record %d decrypted wrong", r)
		}
	}
}

func TestOpenRangeDetectsTamperedRecord(t *testing.T) {
	c := newTestCipher(t)
	const k, ptLen = 4, 72
	plain := make([]byte, k*ptLen)
	sealed := make([]byte, k*SealedLen(ptLen))
	c.SealRange(sealed, plain, ptLen)
	sealed[2*SealedLen(ptLen)+20] ^= 0x80 // inside record 2's body
	err := c.OpenRange(make([]byte, len(plain)), sealed, ptLen)
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("err = %v, want wrapped ErrAuth", err)
	}
	if want := "record 2 of 4"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err %q does not name the record (%q)", err, want)
	}
}

// TestNonceUniqueAcrossConcurrentSealRange hammers one Cipher from many
// goroutines and asserts that every sealed record carries a distinct
// nonce and a distinct keystream-block reservation — the property CTR
// security rests on. Run under -race it also exercises the atomic
// reservation path for data races.
func TestNonceUniqueAcrossConcurrentSealRange(t *testing.T) {
	c := newTestCipher(t)
	const (
		goroutines = 8
		ranges     = 50
		k          = 16
		ptLen      = 72
	)
	out := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			plain := make([]byte, k*ptLen)
			buf := make([]byte, 0, ranges*k*SealedLen(ptLen))
			for r := 0; r < ranges; r++ {
				sealed := make([]byte, k*SealedLen(ptLen))
				c.SealRange(sealed, plain, ptLen)
				buf = append(buf, sealed...)
			}
			out[g] = buf
		}(g)
	}
	wg.Wait()
	recLen := SealedLen(ptLen)
	bpr := (ptLen + aes.BlockSize - 1) / aes.BlockSize
	seen := make(map[[aes.BlockSize]byte]bool)
	starts := make(map[uint64]bool)
	for _, buf := range out {
		for off := 0; off+recLen <= len(buf); off += recLen {
			var nonce [aes.BlockSize]byte
			copy(nonce[:], buf[off:off+aes.BlockSize])
			if seen[nonce] {
				t.Fatal("duplicate nonce across concurrent SealRange calls")
			}
			seen[nonce] = true
			start := binary.BigEndian.Uint64(nonce[8:])
			for b := uint64(0); b < uint64(bpr); b++ {
				if starts[start+b] {
					t.Fatal("overlapping keystream-block reservation")
				}
				starts[start+b] = true
			}
		}
	}
	if len(seen) != goroutines*ranges*k {
		t.Fatalf("collected %d nonces, want %d", len(seen), goroutines*ranges*k)
	}
}

// The acceptance bar of the zero-allocation rework: the hot sealing
// operations must not allocate in steady state.
func TestSealedPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c := newTestCipher(t)
	const k, ptLen = 64, 72
	plain := make([]byte, k*ptLen)
	sealed := make([]byte, k*SealedLen(ptLen))
	one := make([]byte, SealedLen(ptLen))
	out := make([]byte, ptLen)
	// Warm the scratch pool first.
	c.SealRange(sealed, plain, ptLen)
	c.Seal(one, plain[:ptLen])
	checks := []struct {
		name string
		fn   func()
	}{
		{"Seal", func() { c.Seal(one, plain[:ptLen]) }},
		{"Open", func() {
			if err := c.Open(out, one); err != nil {
				t.Fatal(err)
			}
		}},
		{"SealRange", func() { c.SealRange(sealed, plain, ptLen) }},
		{"OpenRange", func() {
			if err := c.OpenRange(plain, sealed, ptLen); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range checks {
		if avg := testing.AllocsPerRun(50, tc.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, avg)
		}
	}
}

func BenchmarkSeal64(b *testing.B) {
	key := make([]byte, 32)
	c, _ := New(key)
	pt := make([]byte, 64)
	sealed := make([]byte, SealedLen(64))
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		c.Seal(sealed, pt)
	}
}

// The range benchmarks use 72-byte records (the width of one encoded
// table entry) in runs of 64, the shape of one sorting-round chunk.
const benchRangeRecords = 64

func BenchmarkSealRange(b *testing.B) {
	key := make([]byte, 32)
	c, _ := New(key)
	const ptLen = 72
	plain := make([]byte, benchRangeRecords*ptLen)
	sealed := make([]byte, benchRangeRecords*SealedLen(ptLen))
	b.SetBytes(int64(len(plain)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SealRange(sealed, plain, ptLen)
	}
}

func BenchmarkOpenRange(b *testing.B) {
	key := make([]byte, 32)
	c, _ := New(key)
	const ptLen = 72
	plain := make([]byte, benchRangeRecords*ptLen)
	sealed := make([]byte, benchRangeRecords*SealedLen(ptLen))
	c.SealRange(sealed, plain, ptLen)
	b.SetBytes(int64(len(plain)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.OpenRange(plain, sealed, ptLen); err != nil {
			b.Fatal(err)
		}
	}
}

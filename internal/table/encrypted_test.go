package table

import (
	"bytes"
	"testing"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/trace"
)

// This file pins the per-entry behaviours of the sealed store on its
// B=1 form, NewBlockEncrypted(…, 1): one ciphertext record per entry.
// block_test.go sweeps the block widths.

func newCipher(t *testing.T) *crypto.Cipher {
	t.Helper()
	c, _, err := crypto.NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEncryptedRoundTrip(t *testing.T) {
	s := memory.NewSpace(nil, nil)
	enc := NewBlockEncrypted(s, newCipher(t), 4, 1)
	e := entryFixture()
	enc.Set(2, e)
	if got := enc.Get(2); got != e {
		t.Fatalf("Get = %+v, want %+v", got, e)
	}
}

func TestEncryptedZeroInitialized(t *testing.T) {
	s := memory.NewSpace(nil, nil)
	enc := NewBlockEncrypted(s, newCipher(t), 3, 1)
	var zero Entry
	for i := 0; i < 3; i++ {
		if got := enc.Get(i); got != zero {
			t.Fatalf("slot %d = %+v, want zero entry", i, got)
		}
	}
}

func TestEncryptedCiphertextChangesOnRewrite(t *testing.T) {
	s := memory.NewSpace(nil, nil)
	enc := NewBlockEncrypted(s, newCipher(t), 1, 1)
	e := entryFixture()
	enc.Set(0, e)
	ct1 := append([]byte(nil), enc.st.block(0)...)
	enc.Set(0, e) // same logical value
	if bytes.Equal(ct1, enc.st.block(0)) {
		t.Fatal("rewriting identical entry produced identical ciphertext")
	}
	if enc.Get(0) != e {
		t.Fatal("plaintext lost across rewrite")
	}
}

func TestEncryptedPanicsOnTamper(t *testing.T) {
	s := memory.NewSpace(nil, nil)
	enc := NewBlockEncrypted(s, newCipher(t), 1, 1)
	enc.st.ct[5] ^= 0xff
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on tampered ciphertext")
		}
	}()
	enc.Get(0)
}

func TestEncryptedEmitsTraceEvents(t *testing.T) {
	log := trace.NewLog()
	s := memory.NewSpace(log, nil)
	enc := NewBlockEncrypted(s, newCipher(t), 2, 1)
	before := log.Len()
	enc.Set(1, Entry{J: 5})
	enc.Get(1)
	if log.Len() != before+2 {
		t.Fatalf("expected 2 events, got %d", log.Len()-before)
	}
}

func TestAllocators(t *testing.T) {
	s := memory.NewSpace(nil, nil)
	plain := PlainAlloc(s)(5)
	if plain.Len() != 5 {
		t.Fatalf("plain Len = %d", plain.Len())
	}
	plain.Set(0, Entry{J: 1})
	if plain.Get(0).J != 1 {
		t.Fatal("plain store broken")
	}

	encA := BlockEncryptedAlloc(s, newCipher(t), 1)(3)
	if encA.Len() != 3 {
		t.Fatalf("sealed Len = %d", encA.Len())
	}
	encA.Set(1, Entry{J: 2})
	if encA.Get(1).J != 2 {
		t.Fatal("sealed store broken")
	}
}

func TestSealedSizeConstant(t *testing.T) {
	if SealedSize != EncodedSize+crypto.Overhead {
		t.Fatalf("SealedSize = %d", SealedSize)
	}
}

func TestEncryptedRangeRoundTrip(t *testing.T) {
	s := memory.NewSpace(nil, nil)
	enc := NewBlockEncrypted(s, newCipher(t), 8, 1)
	src := make([]Entry, 5)
	for i := range src {
		src[i] = Entry{J: uint64(i + 1), TID: 2}
	}
	enc.SetRange(2, src)
	dst := make([]Entry, 5)
	enc.GetRange(2, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, dst[i], src[i])
		}
		if got := enc.Get(2 + i); got != src[i] {
			t.Fatalf("Get(%d) = %+v, want %+v", 2+i, got, src[i])
		}
	}
}

func TestEncryptedRangeEventsMatchElementLoop(t *testing.T) {
	c := newCipher(t)
	run := func(ranged bool) *trace.Log {
		log := trace.NewLog()
		s := memory.NewSpace(log, nil)
		enc := NewBlockEncrypted(s, c, 6, 1)
		src := make([]Entry, 4)
		if ranged {
			enc.SetRange(1, src)
			enc.GetRange(1, make([]Entry, 4))
		} else {
			for i := range src {
				enc.Set(1+i, src[i])
			}
			for i := 0; i < 4; i++ {
				enc.Get(1 + i)
			}
		}
		return log
	}
	a, b := run(true), run(false)
	if !a.Equal(b) {
		t.Fatalf("range events diverge from element loop at %d", a.FirstDivergence(b))
	}
}

func TestEncryptedShard(t *testing.T) {
	parent := trace.NewLog()
	s := memory.NewSpace(parent, nil)
	enc := NewBlockEncrypted(s, newCipher(t), 4, 1)
	before := parent.Len()
	buf := &trace.Buffer{}
	res := enc.Shard(buf)
	if res == nil {
		t.Fatal("Shard refused without a cost model")
	}
	sh := res.(*BlockEncrypted)
	want := entryFixture()
	sh.Set(3, want)
	if got := enc.Get(3); got != want {
		t.Fatal("shard write not visible through parent store")
	}
	if buf.Len() != 1 || parent.Len() != before+1 {
		t.Fatalf("buffered=%d parent-delta=%d, want 1/1", buf.Len(), parent.Len()-before)
	}
}

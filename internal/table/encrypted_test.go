package table

import (
	"testing"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
)

// The TestEncrypted* names pin the per-entry behaviours of the sealed
// store on its B=1 form, one ciphertext record per entry; the bodies
// are in sealed_test.go.

func TestEncryptedRoundTrip(t *testing.T) { checkGetSet(t, heap1) }

func TestEncryptedZeroInitialized(t *testing.T) { checkGetSet(t, heap1) }

func TestEncryptedCiphertextChangesOnRewrite(t *testing.T) { checkRewrite(t, heap1) }

func TestEncryptedPanicsOnTamper(t *testing.T) { checkTamper(t, heap1) }

func TestEncryptedEmitsTraceEvents(t *testing.T) { checkTrace(t, heap1) }

func TestEncryptedRangeRoundTrip(t *testing.T) { checkRange(t, heap1) }

func TestEncryptedShard(t *testing.T) { checkShard(t, heap1) }

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

func TestEncryptedRangeEventsMatchElementLoop(t *testing.T) { checkTrace(t, heap1) }

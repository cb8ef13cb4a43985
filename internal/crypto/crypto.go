// Package crypto simulates the probabilistic encryption layer that the
// paper assumes for public memory (§3.1, §3.5).
//
// The adversary sees ciphertexts only; because encryption is
// probabilistic, a dummy write-back of an unchanged entry is
// indistinguishable from a real update. The join algorithm itself never
// depends on this layer for obliviousness — its access pattern is already
// input-independent — but a credible deployment stores entries encrypted,
// and the evaluation's encrypted variant exercises this code path.
//
// Entries are sealed with AES-128-CTR under a per-Cipher key, plus an
// HMAC-SHA256 tag (encrypt-then-MAC) so tampering by the untrusted
// server is detected. Only the Go standard library is used.
//
// # Nonces
//
// Nonce uniqueness, not unpredictability, is what CTR mode needs: the
// keystream block inputs used across the lifetime of one key must never
// repeat. Instead of drawing a fresh random nonce from crypto/rand on
// every seal — one syscall-backed read per entry on the hot path, with
// only a birthday bound against collision — each Cipher draws a single
// random 64-bit prefix at construction and then derives nonces from an
// atomic counter of keystream blocks: a seal of n bytes reserves
// ⌈n/16⌉ blocks (minimum 1) and uses the nonce
//
//	prefix ‖ big-endian64(start)
//
// where start is the reservation's first block index. Counter blocks
// consumed by different seals are disjoint by construction, under any
// degree of concurrency, so keystream reuse is impossible short of
// sealing 2^64 blocks (2^68 bytes) under one key. The nonce travels in
// the ciphertext header exactly as before, so Open does not care how it
// was generated.
//
// # Batch sealing
//
// SealRange and OpenRange process a contiguous run of fixed-width
// records with one nonce reservation and one reusable scratch state
// (CTR counter block, keystream block, SHA-256 instance for the MAC),
// drawn from a sync.Pool; in steady state Seal, Open, SealRange and
// OpenRange perform no heap allocation at all.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
)

// Overhead is the number of bytes added to each sealed plaintext:
// a 16-byte nonce and a 32-byte MAC tag.
const Overhead = aes.BlockSize + sha256.Size

// ErrAuth is returned when a ciphertext fails authentication.
var ErrAuth = errors.New("crypto: ciphertext authentication failed")

// Cipher seals and opens fixed-size entries. All methods are safe for
// concurrent use: nonce reservation is a single atomic add, and all
// other working state lives in pooled per-call scratch.
type Cipher struct {
	block  cipher.Block
	macKey [32]byte
	// ipad and opad are the precomputed HMAC-SHA256 pad blocks
	// (macKey ⊕ 0x36…, macKey ⊕ 0x5c…), so a MAC costs two SHA-256
	// passes over pooled state and no per-call key schedule.
	ipad, opad [sha256.BlockSize]byte
	prefix     [8]byte       // random per-Cipher nonce prefix
	ctr        atomic.Uint64 // next unclaimed keystream block index
}

// New creates a Cipher from a 32-byte master key: the first 16 bytes key
// AES, the remainder seeds the MAC key (expanded via SHA-256 so the two
// halves are independent). The nonce prefix is drawn fresh from
// crypto/rand, so two Ciphers over the same master key still seal under
// distinct nonce sequences.
func New(master []byte) (*Cipher, error) {
	if len(master) != 32 {
		return nil, fmt.Errorf("crypto: master key must be 32 bytes, got %d", len(master))
	}
	block, err := aes.NewCipher(master[:16])
	if err != nil {
		return nil, err
	}
	c := &Cipher{block: block}
	c.macKey = sha256.Sum256(master[16:])
	for i := range c.ipad {
		c.ipad[i] = 0x36
		c.opad[i] = 0x5c
	}
	for i, b := range c.macKey {
		c.ipad[i] ^= b
		c.opad[i] ^= b
	}
	if _, err := rand.Read(c.prefix[:]); err != nil {
		return nil, fmt.Errorf("crypto: nonce prefix: %w", err)
	}
	return c, nil
}

// NewRandom creates a Cipher with a fresh random master key, returning
// the key so a client could in principle re-derive the cipher.
func NewRandom() (*Cipher, []byte, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, nil, err
	}
	c, err := New(key)
	if err != nil {
		return nil, nil, err
	}
	return c, key, nil
}

// SealedLen returns the ciphertext length for a plaintext of n bytes.
func SealedLen(n int) int { return n + Overhead }

// scratch is the reusable working state of seal/open operations. One
// scratch serves any number of records sequentially; the pool hands a
// warm one to each calling goroutine so steady-state operation never
// allocates.
type scratch struct {
	mac   hash.Hash // one SHA-256 instance, reused for both HMAC passes
	ctr   [aes.BlockSize]byte
	ks    [aes.BlockSize]byte
	inner [sha256.Size]byte
	tag   [sha256.Size]byte
}

var scratchPool = sync.Pool{New: func() any { return &scratch{mac: sha256.New()} }}

// ctrBlocks is the number of keystream blocks a plaintext of n bytes
// consumes. Zero-length plaintexts still reserve one block so every
// seal gets a distinct nonce.
func ctrBlocks(n int) uint64 {
	b := uint64((n + aes.BlockSize - 1) / aes.BlockSize)
	if b == 0 {
		b = 1
	}
	return b
}

// reserve claims n keystream blocks and returns the first block index.
func (c *Cipher) reserve(n uint64) uint64 { return c.ctr.Add(n) - n }

// xorKeyStream applies AES-CTR with the given 16-byte initial counter
// block, writing dst = src ⊕ keystream. It is bit-compatible with
// cipher.NewCTR(block, nonce).XORKeyStream but performs no per-call
// allocation. dst and src must have equal length and may alias exactly.
func (c *Cipher) xorKeyStream(dst, src, nonce []byte, s *scratch) {
	copy(s.ctr[:], nonce)
	for off := 0; off < len(src); off += aes.BlockSize {
		c.block.Encrypt(s.ks[:], s.ctr[:])
		end := off + aes.BlockSize
		if end > len(src) {
			end = len(src)
		}
		subtle.XORBytes(dst[off:end], src[off:end], s.ks[:end-off])
		for i := aes.BlockSize - 1; i >= 0; i-- {
			s.ctr[i]++
			if s.ctr[i] != 0 {
				break
			}
		}
	}
}

// macSum computes HMAC-SHA256(macKey, msg) into the scratch tag buffer
// and returns it. Bit-identical to crypto/hmac with the same key (the
// equivalence is pinned by a test), but allocation-free.
func (c *Cipher) macSum(msg []byte, s *scratch) []byte {
	s.mac.Reset()
	s.mac.Write(c.ipad[:])
	s.mac.Write(msg)
	inner := s.mac.Sum(s.inner[:0])
	s.mac.Reset()
	s.mac.Write(c.opad[:])
	s.mac.Write(inner)
	return s.mac.Sum(s.tag[:0])
}

// sealAt seals plaintext into dst using the reservation starting at
// keystream block start. dst must be SealedLen(len(plaintext)) bytes.
func (c *Cipher) sealAt(dst, plaintext []byte, start uint64, s *scratch) {
	nonce := dst[:aes.BlockSize]
	copy(nonce, c.prefix[:])
	binary.BigEndian.PutUint64(nonce[8:], start)
	body := dst[aes.BlockSize : aes.BlockSize+len(plaintext)]
	c.xorKeyStream(body, plaintext, nonce, s)
	copy(dst[aes.BlockSize+len(plaintext):], c.macSum(dst[:aes.BlockSize+len(plaintext)], s))
}

// open authenticates and decrypts one sealed record whose lengths have
// already been validated.
func (c *Cipher) open(dst, sealed []byte, s *scratch) error {
	n := len(sealed) - Overhead
	if subtle.ConstantTimeCompare(c.macSum(sealed[:aes.BlockSize+n], s), sealed[aes.BlockSize+n:]) != 1 {
		return ErrAuth
	}
	c.xorKeyStream(dst, sealed[aes.BlockSize:aes.BlockSize+n], sealed[:aes.BlockSize], s)
	return nil
}

// Seal encrypts plaintext under a fresh counter nonce and appends a
// MAC. dst must be SealedLen(len(plaintext)) bytes; Seal panics
// otherwise (entry sizes are public constants, so a mismatch is a
// programming error, not data-dependent behaviour).
func (c *Cipher) Seal(dst, plaintext []byte) {
	if len(dst) != SealedLen(len(plaintext)) {
		panic(fmt.Sprintf("crypto: Seal dst %d bytes, want %d", len(dst), SealedLen(len(plaintext))))
	}
	s := scratchPool.Get().(*scratch)
	c.sealAt(dst, plaintext, c.reserve(ctrBlocks(len(plaintext))), s)
	scratchPool.Put(s)
}

// Open authenticates and decrypts a ciphertext produced by Seal into dst,
// which must be len(sealed)-Overhead bytes. It returns ErrAuth when the
// tag does not verify.
func (c *Cipher) Open(dst, sealed []byte) error {
	if len(sealed) < Overhead {
		return fmt.Errorf("crypto: sealed entry too short (%d bytes)", len(sealed))
	}
	if len(dst) != len(sealed)-Overhead {
		panic(fmt.Sprintf("crypto: Open dst %d bytes, want %d", len(dst), len(sealed)-Overhead))
	}
	s := scratchPool.Get().(*scratch)
	err := c.open(dst, sealed, s)
	scratchPool.Put(s)
	return err
}

// SealRange seals k = len(plain)/ptLen consecutive fixed-width records:
// record r covers plain[r*ptLen:(r+1)*ptLen] and lands in
// dst[r*SealedLen(ptLen):(r+1)*SealedLen(ptLen)], each under its own
// nonce from a single k·⌈ptLen/16⌉-block reservation (one atomic add
// for the whole range). Every record remains individually openable
// with Open. Lengths must agree exactly; SealRange panics otherwise.
func (c *Cipher) SealRange(dst, plain []byte, ptLen int) {
	if ptLen <= 0 {
		panic("crypto: SealRange record size must be positive")
	}
	if len(plain)%ptLen != 0 {
		panic(fmt.Sprintf("crypto: SealRange plain %d bytes not a multiple of record size %d", len(plain), ptLen))
	}
	k := len(plain) / ptLen
	recLen := SealedLen(ptLen)
	if len(dst) != k*recLen {
		panic(fmt.Sprintf("crypto: SealRange dst %d bytes, want %d", len(dst), k*recLen))
	}
	if k == 0 {
		return
	}
	bpr := ctrBlocks(ptLen)
	start := c.reserve(uint64(k) * bpr)
	s := scratchPool.Get().(*scratch)
	for r := 0; r < k; r++ {
		c.sealAt(dst[r*recLen:(r+1)*recLen], plain[r*ptLen:(r+1)*ptLen], start+uint64(r)*bpr, s)
	}
	scratchPool.Put(s)
}

// OpenRange authenticates and decrypts k = len(sealed)/SealedLen(ptLen)
// consecutive records produced by Seal or SealRange, the inverse layout
// of SealRange. It stops at the first record that fails authentication,
// returning an error wrapping ErrAuth that names the record index.
// Lengths must agree exactly; OpenRange panics otherwise.
func (c *Cipher) OpenRange(dst, sealed []byte, ptLen int) error {
	if ptLen <= 0 {
		panic("crypto: OpenRange record size must be positive")
	}
	recLen := SealedLen(ptLen)
	if len(sealed)%recLen != 0 {
		panic(fmt.Sprintf("crypto: OpenRange sealed %d bytes not a multiple of record size %d", len(sealed), recLen))
	}
	k := len(sealed) / recLen
	if len(dst) != k*ptLen {
		panic(fmt.Sprintf("crypto: OpenRange dst %d bytes, want %d", len(dst), k*ptLen))
	}
	s := scratchPool.Get().(*scratch)
	for r := 0; r < k; r++ {
		if err := c.open(dst[r*ptLen:(r+1)*ptLen], sealed[r*recLen:(r+1)*recLen], s); err != nil {
			scratchPool.Put(s)
			return fmt.Errorf("crypto: record %d of %d: %w", r, k, err)
		}
	}
	scratchPool.Put(s)
	return nil
}

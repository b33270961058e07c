package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// CanonicalHasher accumulates the canonical binary encoding shared by
// the repository's content-identity hashes — Fingerprint here and the
// engine's PathSignature: 64-bit little-endian words, length-prefixed
// strings, floats by exact bit pattern, SHA-256, hex digest. The
// encoding lives in one place so the fingerprint families cannot
// silently diverge, and the hash is collision-resistant because these
// identities key shared caches fed by untrusted inputs.
type CanonicalHasher struct {
	h hash.Hash
	// buf holds encoded bytes not yet written to h: SHA-256 absorbs
	// them in blocks of about hasherBlock bytes, not field by field.
	buf []byte
}

// hasherBlock is the buffered encoding size at which CanonicalHasher
// writes to the hash.
const hasherBlock = 4096

// NewCanonicalHasher returns an empty canonical hasher.
func NewCanonicalHasher() *CanonicalHasher {
	return &CanonicalHasher{h: sha256.New(), buf: make([]byte, 0, hasherBlock+64)}
}

// Word absorbs a 64-bit value.
func (c *CanonicalHasher) Word(u uint64) {
	c.buf = binary.LittleEndian.AppendUint64(c.buf, u)
	if len(c.buf) >= hasherBlock {
		c.flush()
	}
}

// Float absorbs a float64 by its exact bit pattern.
func (c *CanonicalHasher) Float(f float64) { c.Word(math.Float64bits(f)) }

// Str absorbs a length-prefixed string.
func (c *CanonicalHasher) Str(s string) {
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(len(s)))
	c.buf = append(c.buf, s...)
	if len(c.buf) >= hasherBlock {
		c.flush()
	}
}

// flush writes the buffered encoding to the hash.
func (c *CanonicalHasher) flush() {
	c.h.Write(c.buf)
	c.buf = c.buf[:0]
}

// Sum returns the 64-hex-character digest of everything absorbed.
func (c *CanonicalHasher) Sum() string {
	c.flush()
	return hex.EncodeToString(c.h.Sum(nil))
}

// Fingerprint returns a canonical content hash of the circuit: 64 hex
// characters of SHA-256 over the complete structural and sizing state —
// every node in creation order with its type, Vt class, size, wire load
// and fanin nets, plus the input and output declarations. The circuit
// name is deliberately excluded, so two identical netlists submitted
// under different names share one fingerprint, while any difference in
// structure, sizing or loading changes it.
//
// The batch engine keys its result memoization on this value: unlike a
// circuit *name*, the fingerprint cannot alias two different netlists
// into one memo entry. Named suite benchmarks generate
// deterministically, so a name maps to a stable fingerprint and cache
// hits across submissions are preserved.
func Fingerprint(c *Circuit) string {
	h := NewCanonicalHasher()
	h.Word(uint64(len(c.Nodes)))
	for _, n := range c.Nodes {
		h.Str(n.Name)
		h.Word(uint64(n.Type))
		h.Word(uint64(n.Vt))
		h.Float(n.CIn)
		h.Float(n.CWire)
		h.Word(uint64(len(n.Fanin)))
		for _, f := range n.Fanin {
			h.Str(f.Name)
		}
	}
	h.Word(uint64(len(c.Inputs)))
	for _, n := range c.Inputs {
		h.Str(n.Name)
	}
	h.Word(uint64(len(c.Outputs)))
	for _, n := range c.Outputs {
		h.Str(n.Name)
	}
	return h.Sum()
}

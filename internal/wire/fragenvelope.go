package wire

// fragenvelope.go defines the binary fragment envelope: the self-verifying
// carrier for one erasure-coded share riding inside SignedWrite.Value. The
// envelope holds the share plus the cross-checksum — the vector of digests
// of ALL n shares — so a reader can check any single fragment against the
// writer's one signature without seeing the other n-1 shares
// (PoWerStore-style "proofs of writing"; see DESIGN.md §7.9).
//
// The signature does not cover the raw envelope bytes. Instead the
// envelope's CrossDigest — a digest over (magic, k, n, cross-checksum) —
// takes the place of the value digest in the write's canonical signing
// bytes (SignedWrite.signingBytes). Because CrossDigest is independent of
// the fragment index and share, all n per-server envelopes of one dispersal
// produce IDENTICAL signing bytes: the writer signs once, every verifier
// hits the signature cache, and each share_i is still bound transitively
// via sig → CrossDigest → Cross[i] → digest(share_i). An equivocating
// writer would need two share vectors under one CrossDigest, i.e. a
// collision.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"securestore/internal/cryptoutil"
)

// fragMagic prefixes every fragment envelope (and salts CrossDigest), so
// envelope bytes can never be confused with another signed encoding. A
// value is treated as an envelope only if it parses completely — magic,
// sane geometry, no trailing bytes — which an honest raw value cannot do
// by accident.
const fragMagic = "securestore-frag-v1\x00"

// ErrBadEnvelope reports a malformed or inconsistent fragment envelope.
var ErrBadEnvelope = errors.New("wire: malformed fragment envelope")

// errNoMagic is parseFragmentEnvelope's verdict on a value without the
// envelope magic: every replicated value, on every signing-bytes
// derivation, so it is one preallocated error rather than a fresh one.
var errNoMagic = fmt.Errorf("%w: missing magic", ErrBadEnvelope)

// FragmentEnvelope is one dispersed share plus the self-verifying
// cross-checksum of the whole dispersal.
type FragmentEnvelope struct {
	// Index is the 0-based share index (the IDA matrix row).
	Index int
	// K is the reconstruction threshold; N is the total share count.
	K, N int
	// Cross is the cross-checksum: Cross[i] = digest(share_i) for every
	// one of the N shares, identical in all N envelopes.
	Cross [][32]byte
	// Share is this fragment's payload.
	Share []byte
}

// validate checks the geometry invariants: 1 <= k <= n <= 255 (the IDA
// field bound), index in [0, n), and a cross-checksum entry per share.
func (e *FragmentEnvelope) validate() error {
	if e.K < 1 || e.N < e.K || e.N > 255 {
		return fmt.Errorf("%w: k=%d n=%d", ErrBadEnvelope, e.K, e.N)
	}
	if e.Index < 0 || e.Index >= e.N {
		return fmt.Errorf("%w: index %d outside [0,%d)", ErrBadEnvelope, e.Index, e.N)
	}
	if len(e.Cross) != e.N {
		return fmt.Errorf("%w: %d cross-checksum entries for n=%d", ErrBadEnvelope, len(e.Cross), e.N)
	}
	return nil
}

// Encode renders the envelope in the codec's length-prefixed binary
// layout: magic, uvarint index/k/n, n fixed 32-byte digests, then the
// length-prefixed share.
func (e *FragmentEnvelope) Encode() ([]byte, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(fragMagic)+3*binary.MaxVarintLen64+len(e.Cross)*32+binary.MaxVarintLen64+len(e.Share))
	b = append(b, fragMagic...)
	b = binary.AppendUvarint(b, uint64(e.Index))
	b = binary.AppendUvarint(b, uint64(e.K))
	b = binary.AppendUvarint(b, uint64(e.N))
	for _, d := range e.Cross {
		b = append(b, d[:]...)
	}
	return appendByteSlice(b, e.Share), nil
}

// parseFragmentEnvelope decodes without copying the share (a view into
// data). Callers that retain the result past data's lifetime must use
// DecodeFragmentEnvelope.
func parseFragmentEnvelope(data []byte) (*FragmentEnvelope, error) {
	if !bytes.HasPrefix(data, []byte(fragMagic)) {
		return nil, errNoMagic
	}
	r := &bufReader{data: data, off: len(fragMagic)}
	e := &FragmentEnvelope{}
	e.Index = int(r.uvarint())
	e.K = int(r.uvarint())
	e.N = int(r.uvarint())
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, r.err)
	}
	if e.K < 1 || e.N < e.K || e.N > 255 || e.Index < 0 || e.Index >= e.N {
		return nil, fmt.Errorf("%w: index=%d k=%d n=%d", ErrBadEnvelope, e.Index, e.K, e.N)
	}
	e.Cross = make([][32]byte, e.N)
	for i := range e.Cross {
		copy(e.Cross[i][:], r.take(32))
	}
	e.Share = r.view()
	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	return e, nil
}

// DecodeFragmentEnvelope parses an envelope, rejecting truncation,
// trailing bytes, and impossible geometry. The result shares no memory
// with data.
func DecodeFragmentEnvelope(data []byte) (*FragmentEnvelope, error) {
	e, err := parseFragmentEnvelope(data)
	if err != nil {
		return nil, err
	}
	e.Share = append([]byte(nil), e.Share...)
	return e, nil
}

// IsFragmentEnvelope reports whether data is a complete, well-formed
// fragment envelope — the strict test the data path uses to route a
// stored value down the erasure-coded read path.
func IsFragmentEnvelope(data []byte) bool {
	_, err := parseFragmentEnvelope(data)
	return err == nil
}

// CrossDigest is the digest the writer's signature binds for fragment
// envelopes: digest(magic || k || n || Cross[0..n-1]). It commits to the
// full dispersal geometry and every share's digest, but not to any one
// index or share — so all n envelopes of a dispersal share it, and the
// writer signs once.
func (e *FragmentEnvelope) CrossDigest() [32]byte {
	b := make([]byte, 0, len(fragMagic)+2*binary.MaxVarintLen64+len(e.Cross)*32)
	b = append(b, fragMagic...)
	b = binary.AppendUvarint(b, uint64(e.K))
	b = binary.AppendUvarint(b, uint64(e.N))
	for _, d := range e.Cross {
		b = append(b, d[:]...)
	}
	return cryptoutil.Digest(b)
}

// VerifyShare checks the envelope's own share against its cross-checksum
// entry: digest(Share) must equal Cross[Index]. Together with the
// signature over CrossDigest this makes every fragment self-verifying.
func (e *FragmentEnvelope) VerifyShare() error {
	if err := e.validate(); err != nil {
		return err
	}
	if cryptoutil.Digest(e.Share) != e.Cross[e.Index] {
		return fmt.Errorf("%w: share digest does not match cross-checksum[%d]", ErrBadEnvelope, e.Index)
	}
	return nil
}

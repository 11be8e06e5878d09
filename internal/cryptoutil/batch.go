package cryptoutil

// batch.go implements Ed25519 batch verification: n signatures checked
// with one multi-scalar multiplication instead of n double-scalar
// multiplications (DESIGN.md §7.11). The server's admission stage feeds
// it micro-batches of concurrently arriving signed requests, which is
// where the replica-side CPU bill of the remote-cluster hot path lives.
//
// The check is the standard cofactored batch equation: with random
// 128-bit multipliers z_i, per-signature components R_i (first half of
// the signature), s_i (second half), public keys A_i, and challenge
// h_i = SHA-512(R_i || A_i || M_i) mod L,
//
//	[8](-Σ z_i s_i)B + Σ [8 z_i]R_i + Σ [8 z_i h_i]A_i == identity
//
// accepts iff every individual cofactored equation holds, except with
// probability ~2^-128 over the z_i. The cofactor 8 is folded into the
// scalars (8x mod L distributes over the sum), avoiding a point-level
// cofactor clearing. When the batch equation fails, the batch is
// bisected so one bad signature only costs its own sub-batch; singleton
// sub-batches fall back to crypto/ed25519's Verify, which keeps every
// individual accept/reject decision byte-identical to the unbatched
// path. (The batch equation is cofactored while crypto/ed25519 is
// cofactorless; honestly generated signatures satisfy both, and any
// adversarial signature in the ~2^-125 semantic gap still gets the
// unbatched verdict via bisection whenever it matters — a batch it rides
// in either fails, bisecting down to the stdlib check, or passes, which
// the cofactored equation permits.)

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/sha512"
	"fmt"
	"io"

	"securestore/internal/edwards25519"
	"securestore/internal/metrics"
)

// BatchItem is one signature-check job for VerifyBatch: principal id,
// the signed data (the signature covers its SHA-256 digest, matching
// KeyPair.Sign), and the 64-byte Ed25519 signature.
type BatchItem struct {
	Signer string
	Data   []byte
	Sig    []byte
}

// VerifyBatch checks every item's signature and returns one error slot
// per item: nil means verified, ErrUnknownPrincipal or ErrBadSignature
// otherwise. Semantics match calling Keyring.Verify per item — the
// verified-signature LRU is consulted first and primed after, and a
// failing item never affects its batch partners — but the signatures
// that miss the cache are checked together with one multi-scalar
// multiplication instead of one Ed25519 operation each.
func (r *Keyring) VerifyBatch(items []BatchItem, m *metrics.Counters) []error {
	errs := make([]error, len(items))
	cache := r.verifyCache()

	// Resolve keys and consult the cache; only misses pay for crypto.
	type job struct {
		idx    int
		pub    ed25519.PublicKey
		point  *edwards25519.Point
		digest [32]byte
		key    vcacheKey
	}
	jobs := make([]job, 0, len(items))
	for i, it := range items {
		pub, point, err := r.lookupPoint(it.Signer)
		if err != nil {
			errs[i] = err
			continue
		}
		j := job{idx: i, pub: pub, point: point, digest: sha256.Sum256(it.Data)}
		if cache != nil {
			j.key = cache.key(it.Signer, j.digest, it.Sig)
			if cache.seen(j.key) {
				m.AddVerifyCacheHit()
				continue
			}
			m.AddVerifyCacheMiss()
		}
		jobs = append(jobs, j)
	}
	if len(jobs) == 0 {
		return errs
	}

	verifyOne := func(j job) {
		m.AddVerification()
		if !ed25519.Verify(j.pub, j.digest[:], items[j.idx].Sig) {
			errs[j.idx] = fmt.Errorf("%w: principal %q", ErrBadSignature, items[j.idx].Signer)
			return
		}
		if cache != nil {
			cache.record(j.key)
		}
	}

	// verifySpan batch-checks jobs[lo:hi], bisecting on failure.
	var verifySpan func(lo, hi int)
	verifySpan = func(lo, hi int) {
		if hi-lo == 1 {
			verifyOne(jobs[lo])
			return
		}
		span := jobs[lo:hi]
		sigs := make([]batchSig, len(span))
		for i, j := range span {
			sigs[i] = batchSig{pub: j.pub, point: j.point, digest: j.digest[:], sig: items[j.idx].Sig}
		}
		ok, err := batchEquation(sigs)
		if err != nil {
			// Malformed point/scalar encodings or a randomizer failure:
			// the batch equation cannot run, so every item gets the exact
			// unbatched verdict instead.
			for _, j := range span {
				verifyOne(j)
			}
			return
		}
		if ok {
			m.AddVerifyBatched(len(span))
			for _, j := range span {
				m.AddVerification()
				if cache != nil {
					cache.record(j.key)
				}
			}
			return
		}
		mid := lo + (hi-lo)/2
		verifySpan(lo, mid)
		verifySpan(mid, hi)
	}
	verifySpan(0, len(jobs))
	return errs
}

// batchSig is one signature for batchEquation: the public key (with its
// decompressed point when the keyring has one), the message (here always
// a SHA-256 digest, per KeyPair.Sign), and the 64-byte signature.
type batchSig struct {
	pub    ed25519.PublicKey
	point  *edwards25519.Point
	digest []byte
	sig    []byte
}

// batchEquation evaluates the cofactored batch equation over the span.
// It reports whether the aggregate check passed; a non-nil error means
// the equation could not be evaluated (unparseable signature or key, or
// no entropy for the randomizers) and the caller must fall back to
// per-item verification.
func batchEquation(span []batchSig) (bool, error) {
	// One entropy read covers the whole batch: 16 bytes (128 bits) per
	// randomizer keeps the forgery-survival probability at ~2^-128.
	zraw := make([]byte, 16*len(span))
	if _, err := io.ReadFull(rand.Reader, zraw); err != nil {
		return false, fmt.Errorf("batch randomizers: %w", err)
	}

	var eight edwards25519.Scalar
	if _, err := eight.SetCanonicalBytes(scalarEightBytes()); err != nil {
		return false, err
	}

	scalars := make([]*edwards25519.Scalar, 0, 2*len(span)+1)
	points := make([]*edwards25519.Point, 0, 2*len(span)+1)
	// Slot 0 carries the basepoint term; its scalar is filled in last.
	bScalar := new(edwards25519.Scalar)
	scalars = append(scalars, bScalar)
	points = append(points, edwards25519.NewGeneratorPoint())

	sSum := new(edwards25519.Scalar) // Σ z_i s_i
	var zbuf [64]byte
	for i, item := range span {
		sigBytes := item.sig
		if len(sigBytes) != ed25519.SignatureSize {
			return false, fmt.Errorf("signature %d: bad length %d", i, len(sigBytes))
		}
		if len(item.pub) != ed25519.PublicKeySize {
			return false, fmt.Errorf("public key %d: bad length %d", i, len(item.pub))
		}

		R, err := new(edwards25519.Point).SetBytes(sigBytes[:32])
		if err != nil {
			return false, fmt.Errorf("signature %d: R: %w", i, err)
		}
		A := item.point
		if A == nil {
			if A, err = new(edwards25519.Point).SetBytes(item.pub); err != nil {
				return false, fmt.Errorf("public key %d: %w", i, err)
			}
		}
		s, err := new(edwards25519.Scalar).SetCanonicalBytes(sigBytes[32:])
		if err != nil {
			return false, fmt.Errorf("signature %d: s: %w", i, err)
		}

		// h_i = SHA-512(R || A || M) mod L — the Ed25519 challenge. The
		// message M is the SHA-256 digest of the signed data, matching
		// KeyPair.Sign's signed-digest construction.
		hh := sha512.New()
		hh.Write(sigBytes[:32])
		hh.Write(item.pub)
		hh.Write(item.digest)
		h, err := new(edwards25519.Scalar).SetUniformBytes(hh.Sum(nil))
		if err != nil {
			return false, err
		}

		// z_i: 128 random bits zero-extended to the 64 bytes
		// SetUniformBytes wants (values < 2^128 reduce to themselves).
		for j := range zbuf {
			zbuf[j] = 0
		}
		copy(zbuf[:16], zraw[16*i:])
		z, err := new(edwards25519.Scalar).SetUniformBytes(zbuf[:])
		if err != nil {
			return false, err
		}

		sSum.MultiplyAdd(z, s, sSum)

		zh := new(edwards25519.Scalar).Multiply(z, h)
		scalars = append(scalars, z.Multiply(z, &eight), zh.Multiply(zh, &eight))
		points = append(points, R, A)
	}

	bScalar.Negate(sSum)
	bScalar.Multiply(bScalar, &eight)

	sum := new(edwards25519.Point).VarTimeMultiScalarMult(scalars, points)
	return sum.Equal(edwards25519.NewIdentityPoint()) == 1, nil
}

// scalarEightBytes returns the canonical little-endian encoding of 8.
func scalarEightBytes() []byte {
	b := make([]byte, 32)
	b[0] = 8
	return b
}

package cryptoutil

// keys.go derives deterministic keyrings and implements signing and
// verification (see doc.go for the package overview).

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"securestore/internal/edwards25519"
	"securestore/internal/metrics"
)

// Errors returned by this package.
var (
	ErrUnknownPrincipal = errors.New("cryptoutil: unknown principal")
	ErrBadSignature     = errors.New("cryptoutil: signature verification failed")
	ErrDuplicateKey     = errors.New("cryptoutil: principal already registered")
)

// KeyPair holds a principal's Ed25519 key pair together with its identity.
type KeyPair struct {
	ID      string
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// NewKeyPair generates a fresh random key pair for the named principal.
func NewKeyPair(id string) (KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return KeyPair{}, fmt.Errorf("generate key for %q: %w", id, err)
	}
	return KeyPair{ID: id, Public: pub, Private: priv}, nil
}

// DeterministicKeyPair derives a key pair from the principal's name and a
// seed string. It is intended for tests and reproducible experiments; real
// deployments must use NewKeyPair.
func DeterministicKeyPair(id, seed string) KeyPair {
	sum := sha256.Sum256([]byte("securestore-key:" + seed + ":" + id))
	priv := ed25519.NewKeyFromSeed(sum[:])
	pub, ok := priv.Public().(ed25519.PublicKey)
	if !ok {
		// ed25519 private keys always yield ed25519 public keys; this is
		// unreachable but keeps the type assertion checked.
		panic("cryptoutil: ed25519 public key type mismatch")
	}
	return KeyPair{ID: id, Public: pub, Private: priv}
}

// Sign produces an Ed25519 signature over the SHA-256 digest of data,
// matching the paper's "signed digest" construction {d(data)}_{K^-1}.
func (k KeyPair) Sign(data []byte, m *metrics.Counters) []byte {
	m.AddSignature()
	digest := sha256.Sum256(data)
	return ed25519.Sign(k.Private, digest[:])
}

// Keyring maps principal identifiers to their well-known public keys. It is
// safe for concurrent use. A Keyring stands in for the paper's assumption
// that "clients and servers own a secure private key for which the public
// key is well known".
type Keyring struct {
	mu    sync.RWMutex
	keys  map[string]ed25519.PublicKey
	cache *VerifyCache
	// points holds each key decompressed to a curve point once, at
	// registration, for the batch equation; a key that does not decode is
	// absent, and batches carrying it fall back to per-item verification.
	points map[string]*edwards25519.Point
}

// NewKeyring returns an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{keys: make(map[string]ed25519.PublicKey), points: make(map[string]*edwards25519.Point)}
}

// EnableVerifyCache attaches a bounded LRU of successful verifications to
// the keyring: Verify returns immediately when the exact (data, signer,
// signature) triple has verified before, so repeated deliveries of one
// signed message — gossip re-forwarding, multi-writer b+1-matching reads,
// context re-reads — cost one Ed25519 operation total. Safe because the
// key binds all three inputs: a forged or altered message differs in at
// least one and can never hit. Cache hits and misses are reported on the
// metrics passed to Verify.
func (r *Keyring) EnableVerifyCache(capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache = NewVerifyCache(capacity)
}

// verifyCache returns the attached cache (nil when disabled).
func (r *Keyring) verifyCache() *VerifyCache {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cache
}

// Register installs a principal's public key. Registering the same principal
// twice with a different key is an error (key changes are out of scope for
// the paper, which does not address key management).
func (r *Keyring) Register(id string, pub ed25519.PublicKey) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.keys[id]; ok {
		if bytes.Equal(existing, pub) {
			return nil
		}
		return fmt.Errorf("%w: %q", ErrDuplicateKey, id)
	}
	r.keys[id] = append(ed25519.PublicKey(nil), pub...)
	if p, err := new(edwards25519.Point).SetBytes(pub); err == nil {
		r.points[id] = p
	}
	return nil
}

// MustRegister is Register for initialization paths where a duplicate key
// indicates a programming error.
func (r *Keyring) MustRegister(id string, pub ed25519.PublicKey) {
	if err := r.Register(id, pub); err != nil {
		panic(err)
	}
}

// Lookup returns the public key of the named principal.
func (r *Keyring) Lookup(id string) (ed25519.PublicKey, error) {
	pub, _, err := r.lookupPoint(id)
	return pub, err
}

// lookupPoint returns the principal's public key and its decompressed
// point (nil when the key does not decode).
func (r *Keyring) lookupPoint(id string) (ed25519.PublicKey, *edwards25519.Point, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pub, ok := r.keys[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownPrincipal, id)
	}
	return pub, r.points[id], nil
}

// Principals returns the sorted identifiers of all registered principals.
func (r *Keyring) Principals() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.keys))
	for id := range r.keys {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Verify checks sig over the SHA-256 digest of data against the registered
// public key of principal id. With a verification cache enabled (see
// EnableVerifyCache), a triple that verified before is accepted without
// repeating the Ed25519 operation; only real verifications count toward
// the metrics' verification total.
func (r *Keyring) Verify(id string, data, sig []byte, m *metrics.Counters) error {
	pub, err := r.Lookup(id)
	if err != nil {
		return err
	}
	digest := sha256.Sum256(data)
	cache := r.verifyCache()
	var key vcacheKey
	if cache != nil {
		key = cache.key(id, digest, sig)
		if cache.seen(key) {
			m.AddVerifyCacheHit()
			return nil
		}
		m.AddVerifyCacheMiss()
	}
	m.AddVerification()
	if !ed25519.Verify(pub, digest[:], sig) {
		return fmt.Errorf("%w: principal %q", ErrBadSignature, id)
	}
	if cache != nil {
		cache.record(key)
	}
	return nil
}

// Digest returns the SHA-256 digest of data. It is the d(v) of the paper's
// notation, used both in signatures and in multi-writer timestamps.
func Digest(data []byte) [32]byte {
	return sha256.Sum256(data)
}

// DigestHex returns the hex encoding of the SHA-256 digest of data.
func DigestHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// RandomBytes returns n cryptographically random bytes.
func RandomBytes(n int) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, buf); err != nil {
		return nil, fmt.Errorf("read random bytes: %w", err)
	}
	return buf, nil
}

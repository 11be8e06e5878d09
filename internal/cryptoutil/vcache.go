package cryptoutil

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// vcacheKey identifies one successful verification. It binds all three
// inputs — the digest of the signed data, the signer's identity, and the
// digest of the signature bytes — so a cache hit proves the *exact* triple
// was verified before. A forged message necessarily differs in at least one
// component and therefore can never hit.
type vcacheKey struct {
	data   [32]byte
	signer string
	sig    [32]byte
}

// VerifyCache is a bounded LRU of successful signature verifications. The
// secure store re-verifies the same signed write many times — gossip
// re-delivery, multi-writer reads collecting b+1 matching copies, context
// re-reads — and Ed25519 verification dominates those hot paths. The cache
// collapses each distinct signed message to one verification.
//
// Only *successful* verifications are cached: failures stay cheap to retry
// and a negative entry would let a transient lookup error mask a later
// valid registration. The cache is safe for concurrent use.
type VerifyCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[vcacheKey]*list.Element
	order    *list.List // front = most recently used; values are vcacheKey
}

// NewVerifyCache creates a cache holding at most capacity verified triples
// (minimum 1).
func NewVerifyCache(capacity int) *VerifyCache {
	if capacity < 1 {
		capacity = 1
	}
	return &VerifyCache{
		capacity: capacity,
		entries:  make(map[vcacheKey]*list.Element, capacity),
		order:    list.New(),
	}
}

// key derives the cache key for a verification triple from the digest of
// the signed data (which the verifier computes anyway, so the data is
// hashed once) and the signature, digested so entries are fixed-size.
func (c *VerifyCache) key(signer string, dataDigest [32]byte, sig []byte) vcacheKey {
	return vcacheKey{data: dataDigest, signer: signer, sig: sha256.Sum256(sig)}
}

// seen reports whether the triple was verified before, refreshing its
// recency on a hit.
func (c *VerifyCache) seen(k vcacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return false
	}
	c.order.MoveToFront(el)
	return true
}

// record remembers a successful verification, evicting the least recently
// used entry when full.
func (c *VerifyCache) record(k vcacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(k)
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(vcacheKey))
	}
}

// Len returns the number of cached verifications.
func (c *VerifyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

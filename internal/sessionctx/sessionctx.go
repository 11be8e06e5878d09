// Package sessionctx implements the client *context* of the paper
// (Sections 4 and 5.1): the per-group vector of (item uid, timestamp)
// pairs that captures a client's past interactions with the store and that
// the client uses to decide which values it may consistently accept.
//
// Contexts are stored in the secure store itself between sessions, signed
// by their owner so that malicious servers cannot alter them. Because a
// context has a single writer (its owner), successive context values are
// totally ordered; a sequence number makes "latest" unambiguous even when
// two context versions are pointwise incomparable.
package sessionctx

import (
	"encoding/json"
	"fmt"
	"sort"

	"securestore/internal/cryptoutil"
	"securestore/internal/metrics"
	"securestore/internal/timestamp"
)

// Vector is the context proper: a mapping from item uid to the latest
// timestamp the client has read or written for that item. It corresponds to
// the paper's X_i = ((uid(x_1),ts_1), ..., (uid(x_m),ts_m)).
type Vector map[string]timestamp.Stamp

// NewVector returns an empty context vector.
func NewVector() Vector {
	return make(Vector)
}

// Get returns the stamp recorded for the item (zero stamp if absent).
func (v Vector) Get(item string) timestamp.Stamp {
	return v[item]
}

// Update raises the item's stamp to ts if ts is newer. It reports whether
// the vector changed.
func (v Vector) Update(item string, ts timestamp.Stamp) bool {
	cur, ok := v[item]
	if ok && !cur.Less(ts) {
		return false
	}
	v[item] = ts
	return true
}

// Merge folds other into v pointwise, keeping the maximum stamp per item.
// This is the CC read rule: "update each timestamp in X_i to max of value in
// X_i and the corresponding value in X_writer" (Figure 2).
func (v Vector) Merge(other Vector) {
	for item, ts := range other {
		v.Update(item, ts)
	}
}

// Dominates reports whether v has a stamp >= other's stamp for every item
// present in other.
func (v Vector) Dominates(other Vector) bool {
	for item, ts := range other {
		cur, ok := v[item]
		if !ok || cur.Less(ts) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for item, ts := range v {
		out[item] = ts
	}
	return out
}

// Items returns the sorted item uids present in the vector.
func (v Vector) Items() []string {
	items := make([]string, 0, len(v))
	for item := range v {
		items = append(items, item)
	}
	sort.Strings(items)
	return items
}

// Equal reports whether two vectors record identical stamps.
func (v Vector) Equal(other Vector) bool {
	if len(v) != len(other) {
		return false
	}
	for item, ts := range v {
		if o, ok := other[item]; !ok || o != ts {
			return false
		}
	}
	return true
}

// String renders the vector deterministically for logs.
func (v Vector) String() string {
	items := v.Items()
	out := "{"
	for i, item := range items {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%s", item, v[item])
	}
	return out + "}"
}

// Signed is a context as stored at servers: the owner's vector for one
// related group, a monotonically increasing sequence number, and the
// owner's signature over all of it. The signature prevents malicious
// servers from forging or altering stored contexts (Section 5.1).
type Signed struct {
	Owner  string `json:"owner"`
	Group  string `json:"group"`
	Seq    uint64 `json:"seq"`
	Vector Vector `json:"vector"`
	Sig    []byte `json:"sig"`
}

// canonical is the deterministic signing payload: JSON with the vector
// flattened to a sorted slice so that map iteration order cannot vary the
// bytes. (encoding/json sorts map keys, but being explicit costs little and
// survives encoder changes.)
type canonical struct {
	Owner string      `json:"owner"`
	Group string      `json:"group"`
	Seq   uint64      `json:"seq"`
	Items []canonItem `json:"items"`
}

type canonItem struct {
	Item  string          `json:"item"`
	Stamp timestamp.Stamp `json:"stamp"`
}

// SigningBytes returns the canonical byte string that Owner signs.
func (s *Signed) SigningBytes() []byte {
	c := canonical{Owner: s.Owner, Group: s.Group, Seq: s.Seq}
	for _, item := range s.Vector.Items() {
		c.Items = append(c.Items, canonItem{Item: item, Stamp: s.Vector[item]})
	}
	raw, err := json.Marshal(c)
	if err != nil {
		// Marshalling plain structs of strings and integers cannot fail.
		panic(fmt.Sprintf("sessionctx: marshal canonical context: %v", err))
	}
	return raw
}

// Sign fills in the signature using the owner's key pair.
func (s *Signed) Sign(key cryptoutil.KeyPair, m *metrics.Counters) {
	s.Sig = key.Sign(s.SigningBytes(), m)
}

// Verify checks the signature against the owner's registered public key.
func (s *Signed) Verify(ring *cryptoutil.Keyring, m *metrics.Counters) error {
	if err := ring.Verify(s.Owner, s.SigningBytes(), s.Sig, m); err != nil {
		return fmt.Errorf("context for %s/%s seq %d: %w", s.Owner, s.Group, s.Seq, err)
	}
	return nil
}

// Newer reports whether s is a strictly newer context version than other.
// Context versions from the same honest owner are totally ordered by Seq.
func (s *Signed) Newer(other *Signed) bool {
	if other == nil {
		return true
	}
	return s.Seq > other.Seq
}

// Clone returns a deep copy.
func (s *Signed) Clone() *Signed {
	if s == nil {
		return nil
	}
	out := *s
	out.Vector = s.Vector.Clone()
	out.Sig = append([]byte(nil), s.Sig...)
	return &out
}

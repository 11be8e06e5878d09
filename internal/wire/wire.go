// Package wire defines the messages exchanged between secure-store clients
// and servers, and between servers during dissemination. The central type
// is SignedWrite, the paper's write-message {"write", uid(x_j), X_i (or
// t_j), v, {...}_{K_i^-1}} (Figure 2): because every stored value carries
// its writer's signature over value *and* meta-data, servers act as passive
// repositories — a malicious server can withhold or serve stale data but
// cannot forge or undetectably alter it.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"securestore/internal/accessctl"
	"securestore/internal/cryptoutil"
	"securestore/internal/metrics"
	"securestore/internal/sessionctx"
	"securestore/internal/timestamp"
)

// Errors shared across protocol layers.
var (
	ErrBadWrite  = errors.New("wire: invalid signed write")
	ErrDigest    = errors.New("wire: value digest mismatch")
	ErrWriterUID = errors.New("wire: stamp writer does not match signer")
	ErrNotFound  = errors.New("wire: item not found")
	// ErrWrongShard reports that a request named an item (or context
	// owner) the receiving replica's shard does not own. It is a permanent
	// routing error: retrying against the same group can never succeed, so
	// clients fail fast and re-resolve against their shard table instead
	// of burning their retry budget. The bracketed token is part of the
	// error contract — see IsWrongShard.
	ErrWrongShard = errors.New("wire: item not owned by this replica group " + wrongShardToken)
)

// wrongShardToken is the stable in-band marker for wrong-shard errors.
// The TCP transport flattens server errors to strings (replyEnvelope.Err
// carries only err.Error()), so errors.Is alone cannot classify a remote
// rejection; the token survives the flattening and IsWrongShard matches
// it on the far side.
const wrongShardToken = "[EWRONGSHARD]"

// IsWrongShard reports whether err is a wrong-shard rejection, whether it
// arrived as a live error chain (in-memory transport) or as a
// reconstructed string error (TCP).
func IsWrongShard(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrWrongShard) || strings.Contains(err.Error(), wrongShardToken)
}

// Consistency selects the consistency level a group of data items was
// created with (Section 4.2). Per the paper, the level is fixed at item
// creation: "the same data item cannot be accessed with MRC consistency
// requirement at one time and CC consistency at another time."
type Consistency int

// Consistency levels.
const (
	// MRC is Monotonic Read Consistency: per-item reads never go backwards.
	MRC Consistency = iota + 1
	// CC is Causal Consistency: reads respect causal dependencies across a
	// related group of items, carried in writer contexts.
	CC
)

// String renders the consistency level.
func (c Consistency) String() string {
	switch c {
	case MRC:
		return "MRC"
	case CC:
		return "CC"
	default:
		return fmt.Sprintf("consistency(%d)", int(c))
	}
}

// SignedWrite is a complete, self-verifying write: the item, its new value,
// the timestamp, the writer's context at write time (CC only), and the
// writer's signature over all of it. Non-faulty servers store and forward
// SignedWrites verbatim; dissemination cannot inject spurious writes
// because receivers re-verify the signature.
type SignedWrite struct {
	Group string `json:"group"`
	Item  string `json:"item"`
	// Stamp orders this write. Single-writer protocols use only Stamp.Time;
	// multi-writer protocols fill Writer and Digest too (Section 5.3).
	Stamp timestamp.Stamp `json:"stamp"`
	// WriterCtx is X_writer: the writer's context when the value was
	// written. Present only under CC; nil under MRC.
	WriterCtx sessionctx.Vector `json:"writerCtx,omitempty"`
	Value     []byte            `json:"value"`
	Writer    string            `json:"writer"`
	Sig       []byte            `json:"sig"`

	// memo caches the canonical signing bytes together with the exact
	// field values they were computed from. It is invisible to json and
	// gob (unexported), shared across Clone, and safe for concurrent use.
	// Every read revalidates the snapshot against the current fields, so
	// mutating a write after signing (tampering, fault injection) can
	// never be masked by a stale cache entry.
	memo atomic.Pointer[signingMemo]
}

// signingMemo is one computed canonical encoding plus the field snapshot
// it encodes. raw is immutable once stored.
type signingMemo struct {
	raw         []byte
	group       string
	item        string
	writer      string
	stamp       timestamp.Stamp
	valueDigest [32]byte
	ctx         sessionctx.Vector
}

// matches reports whether the memo still describes the write's current
// field values (valueDigest is the digest of the write's current Value,
// computed by the caller).
func (m *signingMemo) matches(w *SignedWrite, valueDigest [32]byte) bool {
	return m.group == w.Group && m.item == w.Item && m.writer == w.Writer &&
		m.stamp == w.Stamp && m.valueDigest == valueDigest && m.ctx.Equal(w.WriterCtx)
}

// signingMagic versions the canonical signing encoding. A signature is
// over (magic, group, item, stamp, sorted writer context, value digest,
// writer) in a length-prefixed binary layout: every variable-length field
// is preceded by its uvarint length, so no two distinct field tuples can
// produce the same byte string.
const signingMagic = "securestore-write-v1\x00"

// appendLenPrefixed appends s preceded by its uvarint length.
func appendLenPrefixed(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendStamp appends a stamp's (time, writer, digest) triple.
func appendStamp(b []byte, s timestamp.Stamp) []byte {
	b = binary.AppendUvarint(b, s.Time)
	b = appendLenPrefixed(b, s.Writer)
	return append(b, s.Digest[:]...)
}

// SigningBytes returns the canonical bytes the writer signs. The value
// itself is represented by its digest so that signing cost is independent
// of value size, matching the paper's "signed digest" construction.
//
// The canonical encoding is computed once per message and cached: repeat
// calls (a replica verifying, then persisting, then disseminating the same
// write; gossip re-delivery over an in-process transport) reuse the cached
// bytes after revalidating that every signed field still holds the value
// it was computed from.
func (w *SignedWrite) SigningBytes() []byte {
	digest, _ := w.effectiveDigest()
	return w.signingBytes(digest)
}

// effectiveDigest returns the digest the signature binds for this value.
// For ordinary values that is digest(Value). When Value parses strictly as
// a fragment envelope the signature instead binds the envelope's
// CrossDigest, which is identical across all n envelopes of one dispersal:
// the writer signs once and each share stays bound via the cross-checksum
// (see fragenvelope.go). The parsed envelope is returned alongside so
// Verify can check the share without re-parsing.
func (w *SignedWrite) effectiveDigest() ([32]byte, *FragmentEnvelope) {
	if env, err := parseFragmentEnvelope(w.Value); err == nil {
		return env.CrossDigest(), env
	}
	return cryptoutil.Digest(w.Value), nil
}

// signingBytes is SigningBytes for callers that already computed the
// value digest (Verify needs it for the multi-writer stamp check too).
func (w *SignedWrite) signingBytes(valueDigest [32]byte) []byte {
	if m := w.memo.Load(); m != nil && m.matches(w, valueDigest) {
		return m.raw
	}
	items := w.WriterCtx.Items() // sorted, so the encoding is deterministic
	size := len(signingMagic) + len(w.Group) + len(w.Item) + len(w.Writer) +
		len(w.Stamp.Writer) + 96 + len(items)*64
	raw := make([]byte, 0, size)
	raw = append(raw, signingMagic...)
	raw = appendLenPrefixed(raw, w.Group)
	raw = appendLenPrefixed(raw, w.Item)
	raw = appendStamp(raw, w.Stamp)
	raw = binary.AppendUvarint(raw, uint64(len(items)))
	for _, item := range items {
		raw = appendLenPrefixed(raw, item)
		raw = appendStamp(raw, w.WriterCtx[item])
	}
	raw = append(raw, valueDigest[:]...)
	raw = appendLenPrefixed(raw, w.Writer)
	w.memo.Store(&signingMemo{
		raw:         raw,
		group:       w.Group,
		item:        w.Item,
		writer:      w.Writer,
		stamp:       w.Stamp,
		valueDigest: valueDigest,
		ctx:         w.WriterCtx.Clone(),
	})
	return raw
}

// Sign signs the write with the writer's key.
func (w *SignedWrite) Sign(key cryptoutil.KeyPair, m *metrics.Counters) {
	w.Writer = key.ID
	w.Sig = key.Sign(w.SigningBytes(), m)
}

// Verify checks the write's signature, and — when the stamp carries a
// writer uid/digest (multi-writer mode) — that the stamp's writer matches
// the signer and the stamp's digest matches the value. These checks
// implement the paper's rules that "a malicious client cannot use the
// timestamp of a different client" and cannot reuse one timestamp for two
// values.
func (w *SignedWrite) Verify(ring *cryptoutil.Keyring, m *metrics.Counters) error {
	signer, data, sig, err := w.SigCheck()
	if err != nil {
		return err
	}
	if err := ring.Verify(signer, data, sig, m); err != nil {
		return fmt.Errorf("%w: item %s: %v", ErrBadWrite, w.Item, err)
	}
	return nil
}

// SigCheck runs every non-signature validity check (fragment share
// proof, multi-writer stamp discipline) and returns the signature-check
// triple: the signer's principal id, the canonical signing bytes, and
// the signature. It factors the front half of Verify out so the server's
// admission stage can collect the triples of concurrently arriving
// writes and verify them as one Ed25519 batch (cryptoutil.VerifyBatch)
// with semantics identical to per-write Verify calls.
func (w *SignedWrite) SigCheck() (signer string, data, sig []byte, err error) {
	if w == nil {
		return "", nil, nil, ErrBadWrite
	}
	// One digest of the value serves both the multi-writer stamp check and
	// the canonical signing bytes. Fragment envelopes substitute their
	// CrossDigest and additionally prove their own share against the
	// cross-checksum, so a Byzantine server cannot swap in a mangled share
	// or relabel another index's share as its own.
	valueDigest, env := w.effectiveDigest()
	if env != nil {
		if err := env.VerifyShare(); err != nil {
			return "", nil, nil, fmt.Errorf("%w: item %s: %v", ErrBadWrite, w.Item, err)
		}
	}
	if w.Stamp.Writer != "" && w.Stamp.Writer != w.Writer {
		return "", nil, nil, fmt.Errorf("%w: stamp names %q, signed by %q", ErrWriterUID, w.Stamp.Writer, w.Writer)
	}
	if w.Stamp.Writer != "" && w.Stamp.Digest != valueDigest {
		return "", nil, nil, fmt.Errorf("%w: item %s stamp %s", ErrDigest, w.Item, w.Stamp)
	}
	return w.Writer, w.signingBytes(valueDigest), w.Sig, nil
}

// Equal reports whether o is the same signed write: equal in every field
// the signature covers (group, item, stamp, writer, writer context,
// value) and in the signature bytes themselves.
func (w *SignedWrite) Equal(o *SignedWrite) bool {
	if w == nil || o == nil {
		return w == o
	}
	return w.Group == o.Group && w.Item == o.Item && w.Stamp == o.Stamp &&
		w.Writer == o.Writer && w.WriterCtx.Equal(o.WriterCtx) &&
		bytes.Equal(w.Value, o.Value) && bytes.Equal(w.Sig, o.Sig)
}

// Clone returns a deep copy of the write. The cached canonical encoding
// is shared with the original: it is immutable, and both copies revalidate
// it against their own fields before every use.
func (w *SignedWrite) Clone() *SignedWrite {
	if w == nil {
		return nil
	}
	out := &SignedWrite{
		Group:     w.Group,
		Item:      w.Item,
		Stamp:     w.Stamp,
		WriterCtx: w.WriterCtx.Clone(),
		Value:     append([]byte(nil), w.Value...),
		Writer:    w.Writer,
		Sig:       append([]byte(nil), w.Sig...),
	}
	out.memo.Store(w.memo.Load())
	return out
}

// Request is implemented by every client→server and server→server request.
// The exported marker lets other packages (the strong-consistency baselines)
// route their own message types through the same transports.
type Request interface{ WireRequest() }

// Response is implemented by every reply type.
type Response interface{ WireResponse() }

// ContextReadReq asks for the caller's stored signed context for a group
// (session initiation, Figure 1).
type ContextReadReq struct {
	Client string
	Group  string
	Token  *accessctl.Token
}

// ContextReadResp returns the stored context, or nil when the server has
// none for this client/group.
type ContextReadResp struct {
	Ctx *sessionctx.Signed
}

// ContextWriteReq stores the caller's signed context (session termination).
type ContextWriteReq struct {
	Ctx   *sessionctx.Signed
	Token *accessctl.Token
}

// MetaReq asks for the timestamp (meta-data only) of an item — phase one of
// the read protocol in Figure 2, and the bulk query used for context
// reconstruction (Section 5.1).
type MetaReq struct {
	Client string
	Group  string
	Item   string
	Token  *accessctl.Token
}

// MetaResp carries the stamp of the server's current copy. Has is false
// when the server stores no copy of the item.
type MetaResp struct {
	Has   bool
	Stamp timestamp.Stamp
}

// ValueReq fetches the full signed write for an item from a chosen server —
// phase two of the read protocol.
type ValueReq struct {
	Client string
	Group  string
	Item   string
	// Stamp is the stamp the client selected in phase one; the server
	// returns its current copy, which may be even newer.
	Stamp timestamp.Stamp
	Token *accessctl.Token
}

// ValueResp returns the stored signed write.
type ValueResp struct {
	Write *SignedWrite
}

// WriteReq stores a signed write at a server.
type WriteReq struct {
	Write *SignedWrite
	Token *accessctl.Token
}

// Ack is the generic success reply.
type Ack struct{}

// LogReq asks a server for its list of latest writes for an item — the
// multi-writer read protocol (Section 5.3), where a client queries 2b+1
// servers and accepts a value reported identically by b+1 of them.
type LogReq struct {
	Client string
	Group  string
	Item   string
	Token  *accessctl.Token
}

// LogResp carries the server's log of recent validated writes for the
// item, newest first.
type LogResp struct {
	Writes []*SignedWrite
}

// GossipPushReq carries signed writes from one server to another during
// anti-entropy (Section 4: "servers keep themselves informed about updates
// in which they do not directly participate via a gossip protocol").
type GossipPushReq struct {
	From   string
	Writes []*SignedWrite
}

// GossipPushResp acknowledges a push and reports how many writes the
// receiver applied (fresh, valid, and newer than its copies).
type GossipPushResp struct {
	Applied int
}

// DefaultGossipBatch is the default cap on signed writes per gossip
// frame: pushes are chunked and pull replies paged to at most this many
// writes, so a cold replica catching up on a large backlog exchanges a
// sequence of bounded frames instead of materializing the whole log in
// one.
const DefaultGossipBatch = 256

// GossipPullReq asks a peer for the updates it accepted after the
// caller's high-water mark into the peer's update log — pull
// anti-entropy, the complement of push in epidemic replication (the
// paper's ref [7]). Pull lets a rejoining or partitioned-away replica
// catch up at its own initiative.
type GossipPullReq struct {
	From string
	// After is the caller's last seen sequence number in the peer's log.
	After uint64
	// Limit caps the number of writes in the reply (0 means the server's
	// default, DefaultGossipBatch). The server may return fewer and sets
	// More when updates remain past the reply.
	Limit int
	// Cursor resumes a paged state transfer: when the caller is behind
	// the peer's retained log tail, the peer sends its item heads in
	// pages keyed by an opaque cursor the caller echoes back verbatim.
	// Empty starts from the beginning.
	Cursor string
}

// GossipPullResp returns the requested updates and the peer's current
// sequence number (the caller's next high-water mark).
type GossipPullResp struct {
	Writes []*SignedWrite
	// Seq is the sequence mark this reply covers. For an in-window page it
	// is the sequence of the last returned entry (the caller's next After);
	// for a state-transfer page it is the peer's head sequence when the
	// page was cut, which the caller adopts only once the transfer
	// completes.
	Seq uint64
	// Epoch identifies the server's in-memory incarnation. A crashed and
	// restarted replica rebuilds its update log from its WAL, so its
	// sequence numbers no longer align with what peers pulled before the
	// crash; a changed epoch tells the puller to discard its high-water
	// mark and resynchronize from zero.
	Epoch uint64
	// More reports that updates remain past this page; the caller should
	// pull again (echoing Cursor when set) before trusting Seq as caught
	// up.
	More bool
	// Cursor, when non-empty, continues a paged state transfer: echo it in
	// the next request's Cursor field.
	Cursor string
}

func (ContextReadReq) WireRequest()   {}
func (ContextWriteReq) WireRequest()  {}
func (MetaReq) WireRequest()          {}
func (ValueReq) WireRequest()         {}
func (WriteReq) WireRequest()         {}
func (LogReq) WireRequest()           {}
func (GossipPushReq) WireRequest()    {}
func (GossipPullReq) WireRequest()    {}
func (ContextReadResp) WireResponse() {}
func (Ack) WireResponse()             {}
func (MetaResp) WireResponse()        {}
func (ValueResp) WireResponse()       {}
func (LogResp) WireResponse()         {}
func (GossipPushResp) WireResponse()  {}
func (GossipPullResp) WireResponse()  {}

// RequestName returns a short dotted label for a request's kind, used as
// the operation key in traces, latency histograms, and the /metrics
// exporter ("meta", "value", "gossip.push", ...). Unknown request types
// (e.g. baseline-specific messages routed through the same transport)
// report "other".
func RequestName(req Request) string {
	switch req.(type) {
	case ContextReadReq:
		return "ctx.read"
	case ContextWriteReq:
		return "ctx.write"
	case MetaReq:
		return "meta"
	case ValueReq:
		return "value"
	case WriteReq:
		return "write"
	case LogReq:
		return "log"
	case GossipPushReq:
		return "gossip.push"
	case GossipPullReq:
		return "gossip.pull"
	default:
		return "other"
	}
}

// ServerOpName is RequestName with a "server." prefix, as constants — the
// span operation a replica records per request. Precomputed because the
// server opens one such span per inbound request and a runtime concat
// would allocate on that hot path.
func ServerOpName(req Request) string {
	switch req.(type) {
	case ContextReadReq:
		return "server.ctx.read"
	case ContextWriteReq:
		return "server.ctx.write"
	case MetaReq:
		return "server.meta"
	case ValueReq:
		return "server.value"
	case WriteReq:
		return "server.write"
	case LogReq:
		return "server.log"
	case GossipPushReq:
		return "server.gossip.push"
	case GossipPullReq:
		return "server.gossip.pull"
	default:
		return "server.other"
	}
}

// RegisterGob registers every request and response type with encoding/gob
// so the TCP transport can encode them behind the Request/Response
// interfaces. Call once at process start.
func RegisterGob() {
	gob.Register(ContextReadReq{})
	gob.Register(ContextReadResp{})
	gob.Register(ContextWriteReq{})
	gob.Register(MetaReq{})
	gob.Register(MetaResp{})
	gob.Register(ValueReq{})
	gob.Register(ValueResp{})
	gob.Register(WriteReq{})
	gob.Register(Ack{})
	gob.Register(LogReq{})
	gob.Register(LogResp{})
	gob.Register(GossipPushReq{})
	gob.Register(GossipPushResp{})
	gob.Register(GossipPullReq{})
	gob.Register(GossipPullResp{})
}

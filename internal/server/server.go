// Package server implements a secure-store replica. Per the paper's design
// (Section 4), servers are passive repositories of signed data: they store
// whatever validly signed writes reach them, answer meta-data and value
// queries, store client contexts, and exchange signed updates with peers
// through the dissemination protocol. Consistency is enforced by clients;
// the server's job is safe-keeping plus — in the multi-writer case
// (Section 5.3) — causal gating and bounded write logs that blunt attacks
// by malicious clients and servers.
//
// Every Byzantine failure mode studied in the experiments is implemented
// here behind FaultMode, so the same code path serves both correct and
// compromised replicas.
//
// # Concurrency model
//
// Because replicas are passive and every stored object is self-verifying,
// nothing in the protocol requires a replica to process requests one at a
// time. The server is therefore internally concurrent (DESIGN.md §7.6):
//
//   - stw is a stop-the-world RWMutex: every request holds it in read
//     mode for its whole duration; Recover, Restart and log compaction
//     hold it in write mode, so replay never interleaves with requests.
//   - All signature and token verification happens before any exclusive
//     lock is taken — crypto never serializes requests.
//   - Item and context state is striped: hash(key) selects one of
//     Config.Stripes RWMutex-guarded shards, so writes to different items
//     proceed in parallel and reads share their stripe's lock.
//   - A small core RWMutex guards the fault mode and group policies; the
//     dissemination log has its own mutex (a leaf: it is only taken while
//     holding a stripe lock, never the other way around); the multi-writer
//     causal-gating machinery (the pending set and the arrived-check over
//     a whole group) serializes on its own mutex, since gating is by
//     definition a cross-item predicate.
//
// Lock order: stw(R) → mw → stripe → dissem, with core taken only for
// isolated reads. No path holds two stripe locks at once.
package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"securestore/internal/accessctl"
	"securestore/internal/cryptoutil"
	"securestore/internal/metrics"
	"securestore/internal/sessionctx"
	"securestore/internal/storage"
	"securestore/internal/timestamp"
	"securestore/internal/trace"
	"securestore/internal/transport"
	"securestore/internal/wire"
)

// Errors returned by replica handlers.
var (
	ErrCrashed     = errors.New("server: crashed")
	ErrUnknownType = errors.New("server: unknown request type")
	ErrNotWriter   = errors.New("server: request sender is not the write's signer")
)

// FaultMode selects the behaviour of a replica. All modes other than
// Healthy model a compromised or failed server (Section 4: failures may be
// crash or Byzantine, and faulty servers can behave arbitrarily).
type FaultMode int

// Fault modes.
const (
	// Healthy follows the protocol.
	Healthy FaultMode = iota + 1
	// Crash fails every request immediately (connection refused).
	Crash
	// Mute accepts requests but never replies (caller times out).
	Mute
	// Stale serves the oldest value/context it ever stored and silently
	// drops new writes — the "respond with old data" behaviour the paper
	// notes is all a malicious server can do undetectably.
	Stale
	// CorruptValue flips bits in returned values; clients detect this via
	// signature verification.
	CorruptValue
	// CorruptMeta advertises inflated timestamps in meta-data replies,
	// luring clients into fetching values it cannot actually produce.
	CorruptMeta
	// Equivocate answers different clients with different (old vs new)
	// values.
	Equivocate
	// PrematureReport ignores causal gating in the multi-writer protocol
	// and reports writes whose causal predecessors have not arrived —
	// exactly the attack that the 2b+1-read/b+1-match rule masks.
	PrematureReport
)

// String renders the fault mode.
func (f FaultMode) String() string {
	switch f {
	case Healthy:
		return "healthy"
	case Crash:
		return "crash"
	case Mute:
		return "mute"
	case Stale:
		return "stale"
	case CorruptValue:
		return "corrupt-value"
	case CorruptMeta:
		return "corrupt-meta"
	case Equivocate:
		return "equivocate"
	case PrematureReport:
		return "premature-report"
	default:
		return fmt.Sprintf("fault(%d)", int(f))
	}
}

// Policy describes how a related group of data items is accessed. The
// consistency level and sharing pattern are fixed when the group is created
// (Section 5.2).
type Policy struct {
	Consistency wire.Consistency
	// MultiWriter enables the Section 5.3 protocol: augmented timestamps,
	// causal gating and write logs.
	MultiWriter bool
}

// Config configures a replica.
type Config struct {
	// ID is the server's principal name.
	ID string
	// Ring holds the well-known public keys of all principals.
	Ring *cryptoutil.Keyring
	// AuthorityID names the authorization service whose tokens are
	// accepted. Empty disables authorization checks (trusted testbeds).
	AuthorityID string
	// LogDepth bounds the multi-writer per-item write log. The paper keeps
	// "a history of a limited number of writes for each data item"; depth 4
	// is the default.
	LogDepth int
	// MaxUpdateLog bounds the dissemination log (default 1024 entries).
	// Peers that fall further behind than the retained tail receive a
	// state transfer (a snapshot of all current heads) instead — the
	// paper's observation that old log entries can be erased once newer
	// values are widely held, applied to the dissemination path.
	MaxUpdateLog int
	// Stripes is the number of lock stripes item and context state is
	// sharded over (rounded up to a power of two; default 16). More
	// stripes admit more concurrent writers at the cost of a longer
	// stop-the-world sweep in Stats and compaction.
	Stripes int
	// Serialized restores the pre-striping behaviour: one global mutex
	// around every request, signature verification included. It exists
	// only as the baseline for the T3 scaling experiment and should never
	// be set in real deployments.
	Serialized bool
	// DefaultPolicy applies to groups not explicitly registered.
	DefaultPolicy Policy
	// DisableCausalGating turns off the Section 5.3 rule that a write is
	// reported only after its causal predecessors arrive. Ablation A1 uses
	// this to demonstrate the spurious-context denial-of-service the rule
	// prevents; never disable it in real deployments.
	DisableCausalGating bool
	// Shard names the replica group this server belongs to in a sharded
	// deployment. It only labels the per-shard request counter
	// (securestore_shard_ops_total); empty disables the label.
	Shard string
	// Owns, when non-nil, restricts this replica to its shard of the
	// keyspace: requests naming an item (or context owner) the predicate
	// rejects fail with wire.ErrWrongShard instead of being served. The
	// predicate must be the deployment's shared placement function
	// (sharding.Table.Owns partially applied), so every replica of every
	// group independently enforces the same routing. Nil (unsharded
	// deployments) accepts everything.
	Owns func(key string) bool
	// VerifyBatch caps the admission micro-batch: how many concurrently
	// arriving signed requests are verified together with one Ed25519
	// batch equation (DESIGN.md §7.11). Zero picks the default (64);
	// negative disables admission batching so every request verifies its
	// own signature, the pre-batching behaviour.
	VerifyBatch int
	// VerifyBatchWait bounds how long an admission batch's leader waits
	// for company while another batch's verification is in flight; it is
	// never an idle sleep (an idle replica flushes immediately). Zero
	// picks the default (200µs).
	VerifyBatchWait time.Duration
	// Metrics receives the server's verification counts and lock/commit
	// visibility counters (stripe contention, see metrics.AddStripeWait).
	Metrics *metrics.Counters
	// Tracer records one "server.<req>" span per handled request (and,
	// through its histogram set, per-handler latency). May be nil.
	Tracer *trace.Tracer
	// Persist, when non-nil, makes accepted writes and stored contexts
	// durable in a write-ahead log; call Recover after New to reload
	// state. Replayed records still carry their client signatures and are
	// re-verified, so log tampering is detected like message tampering.
	Persist *storage.Log
}

// Server is one secure-store replica.
type Server struct {
	cfg Config

	// stw is the stop-the-world lock: every request (and every public
	// accessor) holds it in read mode; Recover, Restart and compaction
	// hold it in write mode. Go's RWMutex blocks new readers once a
	// writer waits, so replay cannot be starved.
	stw sync.RWMutex

	// serial is the coarse global lock used only under cfg.Serialized.
	serial sync.Mutex

	// core guards the fault mode and group policies — tiny reads on every
	// request, exclusive only in SetFault/RegisterGroup.
	core struct {
		sync.RWMutex
		fault    FaultMode
		policies map[string]Policy
	}

	// epoch is the in-memory incarnation; changes on Restart. Atomic so
	// gossip engines can poll it without touching any data-path lock.
	epoch atomic.Uint64

	// stripes shard item and context state by key hash. stripeMask is
	// len(stripes)-1 (stripe count is a power of two).
	stripes    []stripe
	stripeMask uint32

	// mw serializes the multi-writer causal-gating machinery: the pending
	// set, and the fresh→persist→integrate sequence for gated groups
	// (gating is a cross-item predicate, so per-item stripes cannot
	// order it).
	mw struct {
		sync.Mutex
		pending []*wire.SignedWrite // writes awaiting causal predecessors
	}

	// dissem guards the dissemination log. Leaf lock: taken while holding
	// a stripe lock (integrate) but never held while acquiring one.
	dissem struct {
		sync.Mutex
		updates []*wire.SignedWrite // in acceptance order
		seq     uint64              // first update has sequence seq-len(updates)+1
	}

	// recovering is true while replaying the persistence log. Written
	// only under stw (write mode), read under stw (read mode), so the
	// RWMutex orders all accesses.
	recovering bool

	// admit batches concurrently arriving signature checks (nil when
	// cfg.VerifyBatch < 0 disables admission batching).
	admit *admitter
}

// stripe is one shard of item and context state.
type stripe struct {
	mu       sync.RWMutex
	waits    atomic.Int64 // contended acquisitions (see StripeWaits)
	items    map[itemKey]*itemState
	contexts map[ctxKey]*ctxState
}

// epochCounter hands out process-unique epochs so that any two server
// incarnations — a Restart of one server, or a fresh Server object taking
// over a crashed one's name — are distinguishable by gossip peers.
var epochCounter atomic.Uint64

type itemKey struct{ group, item string }

type ctxKey struct{ owner, group string }

type itemState struct {
	head  *wire.SignedWrite   // newest validated write
	first *wire.SignedWrite   // oldest write ever seen (for Stale/Equivocate faults)
	log   []*wire.SignedWrite // multi-writer: recent reported writes, newest first
}

type ctxState struct {
	cur   *sessionctx.Signed
	first *sessionctx.Signed
}

var _ transport.Handler = (*Server)(nil)

// New creates a healthy replica.
func New(cfg Config) *Server {
	if cfg.LogDepth <= 0 {
		cfg.LogDepth = 4
	}
	if cfg.MaxUpdateLog <= 0 {
		cfg.MaxUpdateLog = 1024
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 16
	}
	n := 1
	for n < cfg.Stripes {
		n <<= 1
	}
	cfg.Stripes = n
	if cfg.DefaultPolicy.Consistency == 0 {
		cfg.DefaultPolicy = Policy{Consistency: wire.MRC}
	}
	s := &Server{cfg: cfg}
	s.core.fault = Healthy
	s.core.policies = make(map[string]Policy)
	s.stripes = make([]stripe, n)
	s.stripeMask = uint32(n - 1)
	s.initStripes()
	s.epoch.Store(epochCounter.Add(1))
	if cfg.VerifyBatch >= 0 {
		s.admit = newAdmitter(cfg.Ring, cfg.Metrics, cfg.VerifyBatch, cfg.VerifyBatchWait)
	}
	return s
}

// verifyTriple routes one signature check through the admission batcher
// when enabled, falling back to the plain per-signature ring check. Both
// paths consult and prime the keyring's verified-signature LRU.
func (s *Server) verifyTriple(signer string, data, sig []byte) error {
	items := [1]cryptoutil.BatchItem{{Signer: signer, Data: data, Sig: sig}}
	var errs [1]error
	s.verifyItems(items[:], errs[:])
	return errs[0]
}

// verifyItems checks every signature triple, writing each verdict to the
// matching slot of errs: one admission submission when batching is on
// (so a disseminated frame verifies as one batch), one ring check per
// item otherwise.
func (s *Server) verifyItems(items []cryptoutil.BatchItem, errs []error) {
	if s.admit != nil {
		s.admit.admit(items, errs)
		return
	}
	for i, it := range items {
		errs[i] = s.cfg.Ring.Verify(it.Signer, it.Data, it.Sig, s.cfg.Metrics)
	}
}

// verifyWrite checks a signed write like wire.SignedWrite.Verify, with
// the signature check routed through the admission batcher.
func (s *Server) verifyWrite(w *wire.SignedWrite) error {
	signer, data, sig, err := w.SigCheck()
	if err != nil {
		return err
	}
	if err := s.verifyTriple(signer, data, sig); err != nil {
		return fmt.Errorf("%w: item %s: %v", wire.ErrBadWrite, w.Item, err)
	}
	return nil
}

// initStripes (re)allocates every stripe's maps. Callers hold stw
// exclusively or own the server (New).
func (s *Server) initStripes() {
	for i := range s.stripes {
		s.stripes[i].items = make(map[itemKey]*itemState)
		s.stripes[i].contexts = make(map[ctxKey]*ctxState)
	}
}

// stripeFor selects the stripe for an item key.
func (s *Server) stripeFor(k itemKey) *stripe {
	h := fnv.New32a()
	_, _ = h.Write([]byte(k.group))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(k.item))
	return &s.stripes[h.Sum32()&s.stripeMask]
}

// ctxStripeFor selects the stripe for a context key.
func (s *Server) ctxStripeFor(k ctxKey) *stripe {
	h := fnv.New32a()
	_, _ = h.Write([]byte(k.owner))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(k.group))
	return &s.stripes[h.Sum32()&s.stripeMask]
}

// lock acquires the stripe exclusively, counting contended acquisitions.
func (s *Server) lock(st *stripe) {
	if st.mu.TryLock() {
		return
	}
	st.waits.Add(1)
	s.cfg.Metrics.AddStripeWait()
	st.mu.Lock()
}

// rlock acquires the stripe shared, counting contended acquisitions.
func (s *Server) rlock(st *stripe) {
	if st.mu.TryRLock() {
		return
	}
	st.waits.Add(1)
	s.cfg.Metrics.AddStripeWait()
	st.mu.RLock()
}

// StripeWaits returns the per-stripe contended-acquisition counts, in
// stripe order. The sum is also available as the stripe-contention
// counter in Config.Metrics.
func (s *Server) StripeWaits() []int64 {
	out := make([]int64, len(s.stripes))
	for i := range s.stripes {
		out[i] = s.stripes[i].waits.Load()
	}
	return out
}

// ID returns the server's principal name.
func (s *Server) ID() string { return s.cfg.ID }

// SetFault switches the replica's behaviour (used by fault-injection
// experiments; takes effect for subsequent requests — a request already in
// flight completes under the mode it started with).
func (s *Server) SetFault(f FaultMode) {
	s.core.Lock()
	defer s.core.Unlock()
	s.core.fault = f
}

// Fault returns the current fault mode.
func (s *Server) Fault() FaultMode {
	s.core.RLock()
	defer s.core.RUnlock()
	return s.core.fault
}

// RegisterGroup declares the access policy for a related group of items.
func (s *Server) RegisterGroup(group string, p Policy) {
	s.core.Lock()
	defer s.core.Unlock()
	s.core.policies[group] = p
}

// policy returns the group's policy.
func (s *Server) policy(group string) Policy {
	s.core.RLock()
	defer s.core.RUnlock()
	if p, ok := s.core.policies[group]; ok {
		return p
	}
	return s.cfg.DefaultPolicy
}

// ServeRequest dispatches one request. It implements transport.Handler.
// When a Tracer is configured each request is recorded as a
// "server.<kind>" span annotated with the caller, which is where a
// replica's per-handler latency histograms come from.
func (s *Server) ServeRequest(ctx context.Context, from string, req wire.Request) (wire.Response, error) {
	if s.cfg.Tracer == nil {
		return s.serve(from, req)
	}
	sp := s.cfg.Tracer.Root(wire.ServerOpName(req))
	sp.SetAttr("from", from)
	resp, err := s.serve(from, req)
	sp.SetError(err)
	sp.End()
	return resp, err
}

// mutates reports whether a request kind can append to the persistence
// log (and therefore should check the compaction trigger first).
func mutates(req wire.Request) bool {
	switch req.(type) {
	case wire.WriteReq, wire.ContextWriteReq, wire.GossipPushReq:
		return true
	default:
		return false
	}
}

// serve is ServeRequest without instrumentation.
func (s *Server) serve(from string, req wire.Request) (wire.Response, error) {
	// Compaction runs stop-the-world, so it must be triggered before this
	// request takes its shared stw lock (RWMutexes do not upgrade).
	if s.cfg.Persist != nil && mutates(req) && s.cfg.Persist.NeedsCompaction() {
		s.compact()
	}
	if s.cfg.Serialized {
		s.serial.Lock()
		defer s.serial.Unlock()
	}
	s.stw.RLock()
	defer s.stw.RUnlock()

	// One fault-mode read per request: the whole request is served under
	// the mode it started with, exactly as under the former global lock.
	fault := s.Fault()
	switch fault {
	case Crash:
		return nil, ErrCrashed
	case Mute:
		return nil, transport.ErrNoReply
	}

	if err := s.checkOwnership(req); err != nil {
		return nil, err
	}
	if s.cfg.Shard != "" {
		s.cfg.Metrics.AddShardOp(s.cfg.Shard)
	}

	switch r := req.(type) {
	case wire.ContextReadReq:
		return s.handleContextRead(from, r, fault)
	case wire.ContextWriteReq:
		return s.handleContextWrite(from, r, fault)
	case wire.MetaReq:
		return s.handleMeta(from, r, fault)
	case wire.ValueReq:
		return s.handleValue(from, r, fault)
	case wire.WriteReq:
		return s.handleWrite(from, r, fault)
	case wire.LogReq:
		return s.handleLog(from, r, fault)
	case wire.GossipPushReq:
		return s.handleGossipPush(from, r, fault)
	case wire.GossipPullReq:
		return s.handleGossipPull(from, r, fault)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownType, req)
	}
}

// checkOwnership rejects requests that name a routing key outside this
// replica's shard with the typed wire.ErrWrongShard, before any handler
// (or crypto) work. Item requests route by item name; context requests by
// the context owner's id (clients store their session context on the
// shard their own id hashes to). Gossip frames are exempt here — each
// carried write is checked individually in acceptWrite.
func (s *Server) checkOwnership(req wire.Request) error {
	if s.cfg.Owns == nil {
		return nil
	}
	var key string
	switch r := req.(type) {
	case wire.MetaReq:
		key = r.Item
	case wire.ValueReq:
		key = r.Item
	case wire.LogReq:
		key = r.Item
	case wire.WriteReq:
		if r.Write == nil {
			return nil // handler reports the malformed write
		}
		key = r.Write.Item
	case wire.ContextReadReq:
		key = r.Client
	case wire.ContextWriteReq:
		if r.Ctx == nil {
			return nil
		}
		key = r.Ctx.Owner
	default:
		return nil
	}
	if !s.cfg.Owns(key) {
		s.cfg.Metrics.AddRoutingMismatch()
		return fmt.Errorf("server %s: %q: %w", s.cfg.ID, key, wire.ErrWrongShard)
	}
	return nil
}

// authorize validates the caller's capability token when an authority is
// configured. Non-faulty servers reject unauthorized requests (Section 4).
// Token verification is pure crypto over shared-safe state and runs
// before any stripe lock is taken.
func (s *Server) authorize(from, group string, tok *accessctl.Token, need accessctl.Rights) error {
	if s.cfg.AuthorityID == "" {
		return nil
	}
	if tok != nil && tok.Issuer != s.cfg.AuthorityID {
		return fmt.Errorf("%w: token issuer %q not trusted", accessctl.ErrUnauthorized, tok.Issuer)
	}
	return tok.Verify(s.cfg.Ring, from, group, need, s.cfg.Metrics)
}

// Stats reports coarse state sizes for experiments (items stored, pending
// gated writes, total log entries). It takes only shared locks, so
// observability polling never blocks the data path.
func (s *Server) Stats() (items, pending, logEntries int) {
	s.stw.RLock()
	defer s.stw.RUnlock()
	for i := range s.stripes {
		st := &s.stripes[i]
		s.rlock(st)
		items += len(st.items)
		for _, is := range st.items {
			logEntries += len(is.log)
		}
		st.mu.RUnlock()
	}
	s.mw.Lock()
	pending = len(s.mw.pending)
	s.mw.Unlock()
	return items, pending, logEntries
}

// stampOf returns the stamp of a write, or the zero stamp for nil.
func stampOf(w *wire.SignedWrite) timestamp.Stamp {
	if w == nil {
		return timestamp.Stamp{}
	}
	return w.Stamp
}

// Recover replays the configured persistence log into server state. Call
// once, after New and RegisterGroup and before serving requests. Replayed
// writes go through full validation (signature, stamp discipline, causal
// gating), so corrupt or forged log entries are skipped rather than
// trusted.
//
// Recover holds the stop-the-world lock for the whole replay, so requests
// — including gossip pushes and pulls from peers — that arrive while
// recovery runs simply queue behind it and are served against the fully
// recovered state; recovery and gossip catch-up cannot interleave
// half-replayed state.
func (s *Server) Recover() error {
	s.stw.Lock()
	defer s.stw.Unlock()
	return s.recoverLocked()
}

// Restart models a process crash and reboot in place: all volatile state
// is discarded, the write-ahead log is replayed, and the server's gossip
// epoch changes so peers discard their pull high-water marks (the rebuilt
// dissemination log generally renumbers updates — without the epoch
// change a peer whose mark exceeds the rebuilt log's length would skip
// every update until the log grew past its stale mark). The caller is
// responsible for the fault mode: a typical crash sequence is
// SetFault(Crash), later Restart() then SetFault(Healthy).
func (s *Server) Restart() error {
	s.stw.Lock()
	defer s.stw.Unlock()
	s.initStripes()
	s.mw.Lock()
	s.mw.pending = nil
	s.mw.Unlock()
	s.dissem.Lock()
	s.dissem.updates = nil
	s.dissem.seq = 0
	s.dissem.Unlock()
	s.epoch.Store(epochCounter.Add(1))
	return s.recoverLocked()
}

// Epoch returns the server's current in-memory incarnation (see Restart).
// Lock-free, so gossip engines can poll it from any goroutine.
func (s *Server) Epoch() uint64 {
	return s.epoch.Load()
}

// recoverLocked replays the persistence log; caller holds stw exclusively.
func (s *Server) recoverLocked() error {
	if s.cfg.Persist == nil {
		return nil
	}
	s.recovering = true
	defer func() { s.recovering = false }()
	fault := s.Fault()

	return s.cfg.Persist.Replay(func(rec storage.Record) error {
		switch rec.Kind {
		case storage.KindWrite:
			if rec.Write != nil {
				_, _ = s.acceptWrite(rec.Write, fault) // invalid records are skipped
			}
		case storage.KindContext:
			if rec.Ctx == nil {
				return nil
			}
			if err := rec.Ctx.Verify(s.cfg.Ring, s.cfg.Metrics); err != nil {
				return nil
			}
			key := ctxKey{owner: rec.Ctx.Owner, group: rec.Ctx.Group}
			st := s.ctxStripeFor(key)
			s.lock(st)
			cs, ok := st.contexts[key]
			if !ok {
				clone := rec.Ctx.Clone()
				st.contexts[key] = &ctxState{cur: clone, first: clone}
			} else if rec.Ctx.Newer(cs.cur) {
				cs.cur = rec.Ctx.Clone()
			}
			st.mu.Unlock()
		}
		return nil
	})
}

// persistWrite appends an accepted write to the log (no-op while
// recovering or without persistence). Persistence failures are surfaced to
// the client: a write is only acknowledged once durable. Concurrent
// appends coalesce into one group commit (storage.Log.Append).
func (s *Server) persistWrite(w *wire.SignedWrite) error {
	if s.cfg.Persist == nil || s.recovering {
		return nil
	}
	return s.cfg.Persist.Append(storage.Record{Kind: storage.KindWrite, Write: w})
}

// persistContext appends a stored context to the log.
func (s *Server) persistContext(ctx *sessionctx.Signed) error {
	if s.cfg.Persist == nil || s.recovering {
		return nil
	}
	return s.cfg.Persist.Append(storage.Record{Kind: storage.KindContext, Ctx: ctx})
}

// compact rewrites the log with only live state when dead records
// dominate. It runs stop-the-world (before the triggering request takes
// its shared lock), so the gathered snapshot is consistent and no append
// can interleave with the rewrite.
func (s *Server) compact() {
	s.stw.Lock()
	defer s.stw.Unlock()
	if !s.cfg.Persist.NeedsCompaction() { // recheck: another request may have compacted
		return
	}
	var live []storage.Record
	for i := range s.stripes {
		st := &s.stripes[i]
		for _, is := range st.items {
			if is.head != nil {
				live = append(live, storage.Record{Kind: storage.KindWrite, Write: is.head})
			}
			for _, w := range is.log {
				if is.head == nil || w.Stamp != is.head.Stamp {
					live = append(live, storage.Record{Kind: storage.KindWrite, Write: w})
				}
			}
		}
		for _, cs := range st.contexts {
			live = append(live, storage.Record{Kind: storage.KindContext, Ctx: cs.cur})
		}
	}
	for _, w := range s.mw.pending {
		live = append(live, storage.Record{Kind: storage.KindWrite, Write: w})
	}
	// Compaction failure is non-fatal: the log keeps growing and the next
	// trigger retries.
	_ = s.cfg.Persist.Compact(live)
}

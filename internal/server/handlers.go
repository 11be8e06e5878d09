package server

import (
	"fmt"
	"hash/fnv"
	"sort"

	"securestore/internal/accessctl"
	"securestore/internal/cryptoutil"
	"securestore/internal/sessionctx"
	"securestore/internal/timestamp"
	"securestore/internal/wire"
)

// All handlers run with s.stw held in read mode (dispatched from serve) and
// receive the fault mode snapshotted at dispatch, so one request observes
// one mode even if SetFault races with it. Crypto verification happens
// before any stripe lock is taken: stored data is self-verifying, so
// validity does not depend on server state.

// handleContextRead returns the caller's stored signed context for a group.
// Faulty behaviours: Stale/Equivocate serve the first context version ever
// stored — the strongest undetectable lie available, since contexts are
// signed (Section 5.1: "faulty servers can only misbehave by either not
// responding or sending an old value of the context").
func (s *Server) handleContextRead(from string, r wire.ContextReadReq, fault FaultMode) (wire.Response, error) {
	if err := s.authorize(from, r.Group, r.Token, accessctl.ReadOnly); err != nil {
		return nil, err
	}
	key := ctxKey{owner: r.Client, group: r.Group}
	sp := s.ctxStripeFor(key)
	s.rlock(sp)
	defer sp.mu.RUnlock()
	st, ok := sp.contexts[key]
	if !ok {
		return wire.ContextReadResp{}, nil
	}
	switch fault {
	case Stale:
		return wire.ContextReadResp{Ctx: st.first.Clone()}, nil
	case Equivocate:
		if callerParity(from) {
			return wire.ContextReadResp{Ctx: st.first.Clone()}, nil
		}
	}
	return wire.ContextReadResp{Ctx: st.cur.Clone()}, nil
}

// handleContextWrite stores a newer signed context. The server verifies the
// owner's signature so that it never overwrites its copy with spurious
// information (Section 6: "non-faulty servers need to verify the signature
// to ensure that they do not overwrite their context data"). Verification
// runs before the stripe lock.
func (s *Server) handleContextWrite(from string, r wire.ContextWriteReq, fault FaultMode) (wire.Response, error) {
	if r.Ctx == nil {
		return nil, fmt.Errorf("context write from %q: missing context", from)
	}
	if err := s.authorize(from, r.Ctx.Group, r.Token, accessctl.WriteOnly); err != nil {
		return nil, err
	}
	if r.Ctx.Owner != from {
		return nil, fmt.Errorf("context write: owner %q does not match sender %q", r.Ctx.Owner, from)
	}
	if err := s.verifyTriple(r.Ctx.Owner, r.Ctx.SigningBytes(), r.Ctx.Sig); err != nil {
		return nil, fmt.Errorf("context for %s/%s seq %d: %w", r.Ctx.Owner, r.Ctx.Group, r.Ctx.Seq, err)
	}
	if fault == Stale {
		// A stale server acks but drops the update.
		return wire.Ack{}, nil
	}
	key := ctxKey{owner: r.Ctx.Owner, group: r.Ctx.Group}
	sp := s.ctxStripeFor(key)
	s.lock(sp)
	defer sp.mu.Unlock()
	st, ok := sp.contexts[key]
	switch {
	case !ok:
		clone := r.Ctx.Clone()
		sp.contexts[key] = &ctxState{cur: clone, first: clone}
	case r.Ctx.Newer(st.cur):
		st.cur = r.Ctx.Clone()
	default:
		return wire.Ack{}, nil // old version: nothing to store or persist
	}
	if err := s.persistContext(r.Ctx); err != nil {
		return nil, fmt.Errorf("persist context: %w", err)
	}
	return wire.Ack{}, nil
}

// handleMeta answers phase one of the read protocol with the stamp of the
// server's current copy. Read-only: shares the item's stripe lock.
func (s *Server) handleMeta(from string, r wire.MetaReq, fault FaultMode) (wire.Response, error) {
	if err := s.authorize(from, r.Group, r.Token, accessctl.ReadOnly); err != nil {
		return nil, err
	}
	key := itemKey{group: r.Group, item: r.Item}
	sp := s.stripeFor(key)
	s.rlock(sp)
	defer sp.mu.RUnlock()
	st, ok := sp.items[key]
	if !ok || st.head == nil {
		return wire.MetaResp{}, nil
	}
	stamp := st.head.Stamp
	switch fault {
	case Stale:
		stamp = stampOf(st.first)
	case CorruptMeta:
		// Advertise a timestamp for a write that does not exist, luring the
		// client into choosing this server in phase two.
		stamp.Time += 1_000_000
	case Equivocate:
		if callerParity(from) {
			stamp = stampOf(st.first)
		}
	}
	return wire.MetaResp{Has: true, Stamp: stamp}, nil
}

// handleValue answers phase two of the read protocol with the full signed
// write. A CorruptValue server tampers with the value; the client's
// signature check exposes it. Read-only: shares the item's stripe lock.
func (s *Server) handleValue(from string, r wire.ValueReq, fault FaultMode) (wire.Response, error) {
	if err := s.authorize(from, r.Group, r.Token, accessctl.ReadOnly); err != nil {
		return nil, err
	}
	key := itemKey{group: r.Group, item: r.Item}
	sp := s.stripeFor(key)
	s.rlock(sp)
	defer sp.mu.RUnlock()
	st, ok := sp.items[key]
	if !ok || st.head == nil {
		// An empty response (rather than an error) lets context
		// reconstruction count servers that simply hold no copy as
		// responsive, which matters because only faulty servers may be
		// treated as non-responding (Section 5.1).
		return wire.ValueResp{}, nil
	}
	w := st.head
	switch fault {
	case Stale:
		w = st.first
	case Equivocate:
		if callerParity(from) {
			w = st.first
		}
	case CorruptValue:
		corrupt := w.Clone()
		if len(corrupt.Value) > 0 {
			corrupt.Value[0] ^= 0xff
		} else {
			corrupt.Value = []byte{0xff}
		}
		return wire.ValueResp{Write: corrupt}, nil
	case CorruptMeta:
		// The server advertised a non-existent stamp; all it can produce is
		// its real copy (it cannot forge a signature), which the client will
		// reject as older than requested.
	}
	return wire.ValueResp{Write: w.Clone()}, nil
}

// handleWrite validates and stores a client write. For single-writer groups
// the sender must be the signer; disseminated writes arrive through
// handleGossipPush instead, so every direct write is first-hand.
func (s *Server) handleWrite(from string, r wire.WriteReq, fault FaultMode) (wire.Response, error) {
	w := r.Write
	if w == nil {
		return nil, wire.ErrBadWrite
	}
	if err := s.authorize(from, w.Group, r.Token, accessctl.WriteOnly); err != nil {
		return nil, err
	}
	if w.Writer != from {
		return nil, fmt.Errorf("%w: write signed by %q, sent by %q", ErrNotWriter, w.Writer, from)
	}
	if _, err := s.acceptWrite(w, fault); err != nil {
		return nil, err
	}
	return wire.Ack{}, nil
}

// handleLog serves the multi-writer read protocol: the list of latest
// validated writes for an item, newest first. Healthy servers report only
// writes whose causal predecessors have arrived; a PrematureReport server
// also leaks gated pending writes (the attack readers mask with b+1
// matching replies).
func (s *Server) handleLog(from string, r wire.LogReq, fault FaultMode) (wire.Response, error) {
	if err := s.authorize(from, r.Group, r.Token, accessctl.ReadOnly); err != nil {
		return nil, err
	}
	key := itemKey{group: r.Group, item: r.Item}
	sp := s.stripeFor(key)
	var writes []*wire.SignedWrite
	s.rlock(sp)
	if st, ok := sp.items[key]; ok {
		if fault == Stale && st.first != nil {
			writes = append(writes, st.first.Clone())
		} else {
			for _, w := range st.log {
				writes = append(writes, w.Clone())
			}
			if len(writes) == 0 && st.head != nil {
				writes = append(writes, st.head.Clone())
			}
		}
	}
	sp.mu.RUnlock()
	if fault == PrematureReport {
		// Stripe lock released first: the pending set lives under mw, and
		// no path holds a stripe lock while acquiring mw.
		s.mw.Lock()
		for _, w := range s.mw.pending {
			if w.Group == r.Group && w.Item == r.Item {
				writes = append([]*wire.SignedWrite{w.Clone()}, writes...)
			}
		}
		s.mw.Unlock()
	}
	return wire.LogResp{Writes: writes}, nil
}

// handleGossipPush applies disseminated writes from a peer server through
// the batched ingest. Each write carries its original client signature;
// forged or altered writes are rejected, so "a faulty server cannot
// propagate a non-existent or forged write" (Section 4). Applied counts
// the writes accepted without error, exact duplicates of held writes
// included.
func (s *Server) handleGossipPush(from string, r wire.GossipPushReq, fault FaultMode) (wire.Response, error) {
	if fault == Stale {
		// Acks but ignores the updates, staying behind.
		return wire.GossipPushResp{}, nil
	}
	_ = from // the push sender's identity does not matter: writes are self-verifying
	applied, _ := s.ingest(r.Writes, fault)
	return wire.GossipPushResp{Applied: applied}, nil
}

// handleGossipPull serves a peer's pull request with the updates
// accepted after the peer's high-water mark. Like pushes, the returned
// writes are self-verifying, so a faulty server answering a pull can at
// worst withhold updates. Replies are paged: at most Limit writes per
// frame (wire.DefaultGossipBatch when the puller names no limit), with
// More/Cursor telling the puller how to fetch the rest — a cold replica
// catching up on a large log can never force this server to materialize,
// encode, or ship the whole backlog in one frame.
func (s *Server) handleGossipPull(from string, r wire.GossipPullReq, fault FaultMode) (wire.Response, error) {
	_ = from // pulls are served to any peer; writes are self-verifying
	if fault == Stale {
		// Pretends to have nothing new (and echoes a stable epoch so the
		// puller never resets its mark over the lie).
		return wire.GossipPullResp{Seq: r.After, Epoch: s.epoch.Load()}, nil
	}
	limit := r.Limit
	if limit <= 0 {
		limit = wire.DefaultGossipBatch
	}
	writes, seq, more, cursor := s.updatesPage(r.After, limit, r.Cursor)
	return wire.GossipPullResp{Writes: writes, Seq: seq, Epoch: s.epoch.Load(), More: more, Cursor: cursor}, nil
}

// ApplyDisseminated validates and integrates pulled writes — one pulled
// page — through the same batched ingest as a push, reporting how many
// changed local state. The writes are self-verifying, exactly as in a
// push.
func (s *Server) ApplyDisseminated(ws ...*wire.SignedWrite) int {
	if s.cfg.Persist != nil && s.cfg.Persist.NeedsCompaction() {
		s.compact()
	}
	s.stw.RLock()
	defer s.stw.RUnlock()
	fault := s.Fault()
	if fault == Stale {
		return 0
	}
	_, changed := s.ingest(ws, fault)
	return changed
}

// ingest validates and integrates a frame of disseminated writes (a
// gossip push, or one pulled page) and reports how many were accepted
// without error — exact duplicates included — and how many changed local
// state. It is the one path for disseminated writes (DESIGN.md §7.11):
//
//  1. A write equal in every signed field and in its signature to the
//     item's held head or a multi-writer log entry is skipped before any
//     crypto work: it was verified when it was integrated, and
//     integrating it again changes nothing. Any other write — tampered,
//     equivocating, or a replay under a new signature — takes the full
//     path.
//  2. The rest pass the shard and non-signature checks, and their
//     signatures go to the admission stage as one submission, so a frame
//     of new writes verifies as one batch. Verdicts stay per write.
//  3. The verified writes integrate in frame order, so causal gating
//     sees them in the same order as when each verified alone.
func (s *Server) ingest(ws []*wire.SignedWrite, fault FaultMode) (accepted, changed int) {
	var items []cryptoutil.BatchItem
	var checked []*wire.SignedWrite // items[i] is checked[i]'s signature
	for i, w := range ws {
		if w == nil || s.checkOwned(w) != nil {
			continue
		}
		if s.holds(w) {
			accepted++
			continue
		}
		signer, data, sig, err := w.SigCheck()
		if err != nil {
			continue
		}
		if items == nil { // a frame of duplicates allocates nothing
			items = make([]cryptoutil.BatchItem, 0, len(ws)-i)
			checked = make([]*wire.SignedWrite, 0, len(ws)-i)
		}
		items = append(items, cryptoutil.BatchItem{Signer: signer, Data: data, Sig: sig})
		checked = append(checked, w)
	}
	if len(items) == 0 {
		return accepted, 0
	}
	errs := make([]error, len(items))
	s.verifyItems(items, errs)
	for i, w := range checked {
		if errs[i] != nil {
			continue
		}
		if c, err := s.integrateVerified(w, fault); err == nil {
			accepted++
			if c {
				changed++
			}
		}
	}
	return accepted, changed
}

// holds reports whether w equals, in every signed field and in its
// signature, the item's held head or one of its multi-writer log
// entries — writes that were verified when they were integrated.
func (s *Server) holds(w *wire.SignedWrite) bool {
	key := itemKey{group: w.Group, item: w.Item}
	sp := s.stripeFor(key)
	s.rlock(sp)
	defer sp.mu.RUnlock()
	st, ok := sp.items[key]
	if !ok {
		return false
	}
	if w.Equal(st.head) {
		return true
	}
	for _, e := range st.log {
		if w.Equal(e) {
			return true
		}
	}
	return false
}

// checkOwned rejects a write for an item outside this replica's shard. A
// healthy in-group peer never disseminates one, so it is either a
// misconfigured peer or a malicious cross-shard push; rejecting it keeps
// each group's state — and its causal gating — closed over the items it
// owns.
func (s *Server) checkOwned(w *wire.SignedWrite) error {
	if s.cfg.Owns != nil && !s.cfg.Owns(w.Item) {
		s.cfg.Metrics.AddRoutingMismatch()
		return fmt.Errorf("server %s: %q: %w", s.cfg.ID, w.Item, wire.ErrWrongShard)
	}
	return nil
}

// acceptWrite validates a signed write and integrates it into local state
// (integrateVerified). It reports whether the write changed local state
// (a new head, log entry, or newly gated pending write). Verification is
// pure crypto over the self-verifying write and runs with no state lock
// held.
func (s *Server) acceptWrite(w *wire.SignedWrite, fault FaultMode) (bool, error) {
	if err := s.checkOwned(w); err != nil {
		return false, err
	}
	if err := s.verifyWrite(w); err != nil {
		return false, err
	}
	return s.integrateVerified(w, fault)
}

// integrateVerified integrates a write whose signature has been checked:
// it enforces the multi-writer stamp discipline, updates the per-item
// head/log, applies causal gating, and appends to the dissemination log,
// reporting whether local state changed. Multi-writer CC groups
// serialize on s.mw (causal gating is a cross-item predicate); everything
// else goes straight to the item's stripe.
func (s *Server) integrateVerified(w *wire.SignedWrite, fault FaultMode) (bool, error) {
	if wire.IsFragmentEnvelope(w.Value) {
		// Count accepted erasure-coded shares so operators can see the
		// fragmented/replicated traffic split per replica.
		s.cfg.Metrics.AddCustom("server.write.fragment", 1)
	}
	pol := s.policy(w.Group)
	if pol.MultiWriter && w.Stamp.Writer == "" {
		return false, fmt.Errorf("%w: multi-writer group %q requires augmented timestamps", wire.ErrBadWrite, w.Group)
	}

	if fault == Stale {
		// Keeps only the very first version it sees.
		key := itemKey{group: w.Group, item: w.Item}
		sp := s.stripeFor(key)
		s.lock(sp)
		if _, ok := sp.items[key]; !ok {
			clone := w.Clone()
			sp.items[key] = &itemState{head: clone, first: clone}
		}
		sp.mu.Unlock()
		return false, nil
	}

	if pol.MultiWriter && pol.Consistency == wire.CC && !s.cfg.DisableCausalGating {
		// All causally-gated traffic serializes here: the gate check and
		// the integration it depends on must not interleave, or a write
		// could be gated on a predecessor that integrates concurrently and
		// never get promoted.
		s.mw.Lock()
		defer s.mw.Unlock()
		if !s.predecessorsArrived(w) {
			// Causal gating (Section 5.3): hold the write until the causally
			// preceding writes named in its context arrive. The write is
			// accepted (acked, retained) but not reported to readers.
			if s.pendingContains(w) {
				return false, nil
			}
			if err := s.persistWrite(w); err != nil {
				return false, fmt.Errorf("persist gated write: %w", err)
			}
			s.mw.pending = append(s.mw.pending, w.Clone())
			return true, nil
		}
		changed, err := s.integrateOne(w, pol)
		if err != nil {
			return false, err
		}
		s.promotePending()
		return changed, nil
	}

	return s.integrateOne(w, pol)
}

// integrateOne persists (if fresh) and integrates one validated,
// gating-cleared write under its item's stripe lock, reporting freshness.
// The persistence append happens inside the stripe lock — a write is only
// acknowledged once durable, and appends for the same item must hit the
// log in integration order — but appends from different stripes coalesce
// into shared group commits (storage.Log).
func (s *Server) integrateOne(w *wire.SignedWrite, pol Policy) (bool, error) {
	key := itemKey{group: w.Group, item: w.Item}
	sp := s.stripeFor(key)
	s.lock(sp)
	defer sp.mu.Unlock()
	if !freshLocked(sp, key, w, pol) {
		return false, nil // nothing to persist, retain, or disseminate
	}
	// Acknowledge only once durable: a crashed-and-recovered replica
	// must still hold everything it acked (Section 4 safe keeping).
	if err := s.persistWrite(w); err != nil {
		return false, fmt.Errorf("persist write: %w", err)
	}
	s.integrateLocked(sp, key, w, pol)
	return true, nil
}

// freshLocked reports whether the validated write would change local
// state (and therefore deserves a persistence record). Caller holds the
// key's stripe lock.
func freshLocked(sp *stripe, key itemKey, w *wire.SignedWrite, pol Policy) bool {
	st, ok := sp.items[key]
	if !ok || st.head == nil || st.head.Stamp.Less(w.Stamp) {
		return true
	}
	if !pol.MultiWriter {
		return false
	}
	for _, existing := range st.log {
		if existing.Stamp == w.Stamp {
			return false
		}
	}
	return true
}

// integrateLocked installs a validated, gating-cleared write that
// freshLocked reported fresh (a stale one would change nothing, so it is
// never cloned). Caller holds the key's stripe lock; the dissemination
// log's own mutex nests inside it (stripe → dissem, never the reverse).
func (s *Server) integrateLocked(sp *stripe, key itemKey, w *wire.SignedWrite, pol Policy) {
	st, ok := sp.items[key]
	if !ok {
		st = &itemState{}
		sp.items[key] = st
	}
	clone := w.Clone()
	if st.first == nil {
		st.first = clone
	}

	newer := st.head == nil || st.head.Stamp.Less(w.Stamp)
	if newer {
		st.head = clone
	}

	if pol.MultiWriter {
		s.logInsertLocked(st, clone)
	}

	if newer {
		// Only new heads are worth disseminating — and fragment envelopes
		// not at all: every peer keeps exactly the one share addressed to
		// it, so a pushed foreign share is dead weight (the receiver can
		// neither serve it under its own index nor be repaired by it),
		// and at large values the share bytes dominate gossip CPU. Peers
		// that missed a dispersal are covered by the read path's n−b
		// quorum, not anti-entropy.
		if wire.IsFragmentEnvelope(clone.Value) {
			return
		}
		// Appending while the stripe lock is held keeps the dissemination
		// log consistent with head order for this item.
		s.dissem.Lock()
		s.dissem.updates = append(s.dissem.updates, clone)
		s.dissem.seq++
		if drop := len(s.dissem.updates) - s.cfg.MaxUpdateLog; drop > 0 {
			// Slide the window past the oldest entries; peers that were
			// behind the trimmed tail get a state transfer from
			// updatesSince. Clearing the dropped slots lets their writes
			// be collected; append copies the retained window into a new
			// array only when the slid-past capacity runs out, not on
			// every write.
			clear(s.dissem.updates[:drop])
			s.dissem.updates = s.dissem.updates[drop:]
		}
		s.dissem.Unlock()
	}
}

// logInsertLocked inserts a write into the item's bounded log (newest
// first, deduplicated by stamp). Caller holds the item's stripe lock.
func (s *Server) logInsertLocked(st *itemState, w *wire.SignedWrite) {
	for _, existing := range st.log {
		if existing.Stamp == w.Stamp {
			return
		}
	}
	st.log = append(st.log, w)
	sort.Slice(st.log, func(i, j int) bool { return st.log[j].Stamp.Less(st.log[i].Stamp) })
	if len(st.log) > s.cfg.LogDepth {
		st.log = st.log[:s.cfg.LogDepth]
	}
}

// predecessorsArrived reports whether every causally preceding write named
// in w's writer context (other than w's own item entry) is already
// reflected in local heads. Caller holds s.mw, which orders this check
// against every concurrent CC integration; the per-item stripe read locks
// are only for memory visibility (heads never retreat).
func (s *Server) predecessorsArrived(w *wire.SignedWrite) bool {
	for item, ts := range w.WriterCtx {
		if item == w.Item {
			continue
		}
		if s.cfg.Owns != nil && !s.cfg.Owns(item) {
			// Cross-shard predecessor: this replica's group never stores
			// that item, so waiting for it would gate the write forever.
			// Causal order across shards is carried by the client instead —
			// its context floor makes any reader of this write demand the
			// predecessor's freshness from the predecessor's own shard, and
			// the writing client serializes cross-shard CC writes so they
			// cannot overtake each other in flight (DESIGN.md §7.8).
			continue
		}
		key := itemKey{group: w.Group, item: item}
		sp := s.stripeFor(key)
		s.rlock(sp)
		st, ok := sp.items[key]
		arrived := ok && st.head != nil && !st.head.Stamp.Less(ts)
		sp.mu.RUnlock()
		if !arrived {
			return false
		}
	}
	return true
}

// pendingContains reports whether the pending set already holds this exact
// write. Caller holds s.mw.
func (s *Server) pendingContains(w *wire.SignedWrite) bool {
	for _, p := range s.mw.pending {
		if p.Group == w.Group && p.Item == w.Item && p.Stamp == w.Stamp {
			return true
		}
	}
	return false
}

// promotePending repeatedly integrates pending writes whose predecessors
// have now arrived. Caller holds s.mw. Pending writes were persisted when
// gated, so promotion integrates without a second log append; each write
// integrates under its own group's policy.
func (s *Server) promotePending() {
	for {
		progressed := false
		remaining := s.mw.pending[:0]
		for _, w := range s.mw.pending {
			if s.predecessorsArrived(w) {
				key := itemKey{group: w.Group, item: w.Item}
				sp := s.stripeFor(key)
				pol := s.policy(w.Group)
				s.lock(sp)
				if freshLocked(sp, key, w, pol) {
					s.integrateLocked(sp, key, w, pol)
				}
				sp.mu.Unlock()
				progressed = true
			} else {
				remaining = append(remaining, w)
			}
		}
		s.mw.pending = remaining
		if !progressed {
			return
		}
	}
}

// UpdatesSince returns dissemination-log entries with sequence numbers in
// (after, current], plus the current sequence number. The gossip engine
// tracks a per-peer high-water mark with this.
func (s *Server) UpdatesSince(after uint64) ([]*wire.SignedWrite, uint64) {
	s.stw.RLock()
	defer s.stw.RUnlock()
	return s.updatesSince(after)
}

// updatesSince is UpdatesSince under an already-held stw read lock.
func (s *Server) updatesSince(after uint64) ([]*wire.SignedWrite, uint64) {
	s.dissem.Lock()
	seq := s.dissem.seq
	if after >= seq {
		s.dissem.Unlock()
		return nil, seq
	}
	first := seq - uint64(len(s.dissem.updates)) + 1
	if after+1 >= first {
		start := int(after - first + 1)
		out := make([]*wire.SignedWrite, 0, len(s.dissem.updates)-start)
		for _, w := range s.dissem.updates[start:] {
			out = append(out, w.Clone())
		}
		s.dissem.Unlock()
		return out, seq
	}
	s.dissem.Unlock()
	// The peer is behind the retained tail: state transfer. All current
	// heads carry everything the trimmed entries established (each trimmed
	// entry was superseded by, or is, some item's head). The dissemination
	// mutex is released before the stripe sweep — heads only advance, so
	// every head as of seq is covered, and any head that advances during
	// the sweep is a write the peer would have to fetch anyway.
	var out []*wire.SignedWrite
	for i := range s.stripes {
		sp := &s.stripes[i]
		s.rlock(sp)
		for _, st := range sp.items {
			if st.head != nil && !wire.IsFragmentEnvelope(st.head.Value) {
				out = append(out, st.head.Clone())
			}
		}
		sp.mu.RUnlock()
	}
	return out, seq
}

// updatesPage is the paged form of updatesSince backing handleGossipPull
// (caller holds the stw read lock). In-window backlogs return at most
// limit entries with Seq set to the last returned entry's sequence number,
// so the puller continues with After = Seq. A peer behind the retained
// tail gets a paged state transfer of item heads instead, ordered by a
// stable group/item key: each page returns the heads after cursor, and
// Seq carries the current log position — which the puller must adopt only
// once the transfer completes (any write accepted mid-transfer has a
// higher sequence number than the first page's snapshot, so it is caught
// by the next in-window pull).
func (s *Server) updatesPage(after uint64, limit int, cursor string) (writes []*wire.SignedWrite, seq uint64, more bool, next string) {
	s.dissem.Lock()
	seq = s.dissem.seq
	if cursor == "" && after >= seq {
		s.dissem.Unlock()
		return nil, seq, false, ""
	}
	first := seq - uint64(len(s.dissem.updates)) + 1
	if cursor == "" && after+1 >= first {
		start := int(after - first + 1)
		window := s.dissem.updates[start:]
		n := len(window)
		if n > limit {
			n, more = limit, true
		}
		writes = make([]*wire.SignedWrite, 0, n)
		for _, w := range window[:n] {
			writes = append(writes, w.Clone())
		}
		s.dissem.Unlock()
		if more {
			seq = first + uint64(start+n) - 1
		}
		return writes, seq, more, ""
	}
	s.dissem.Unlock()
	// State transfer (see updatesSince for why heads cover the trimmed
	// tail), paged by item key so each page is a bounded frame.
	type headEntry struct {
		key string
		w   *wire.SignedWrite
	}
	var heads []headEntry
	for i := range s.stripes {
		sp := &s.stripes[i]
		s.rlock(sp)
		for k, st := range sp.items {
			if st.head == nil || wire.IsFragmentEnvelope(st.head.Value) {
				continue
			}
			if key := k.group + "\x00" + k.item; key > cursor {
				heads = append(heads, headEntry{key, st.head.Clone()})
			}
		}
		sp.mu.RUnlock()
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i].key < heads[j].key })
	if len(heads) > limit {
		heads = heads[:limit]
		more, next = true, heads[limit-1].key
	}
	writes = make([]*wire.SignedWrite, 0, len(heads))
	for _, h := range heads {
		writes = append(writes, h.w)
	}
	return writes, seq, more, next
}

// Head returns the server's current head write for an item (testing and
// experiment instrumentation).
func (s *Server) Head(group, item string) *wire.SignedWrite {
	s.stw.RLock()
	defer s.stw.RUnlock()
	key := itemKey{group: group, item: item}
	sp := s.stripeFor(key)
	s.rlock(sp)
	defer sp.mu.RUnlock()
	st, ok := sp.items[key]
	if !ok || st.head == nil {
		return nil
	}
	return st.head.Clone()
}

// StoredContext returns the server's current stored context for an owner
// and group (testing).
func (s *Server) StoredContext(owner, group string) *sessionctx.Signed {
	s.stw.RLock()
	defer s.stw.RUnlock()
	key := ctxKey{owner: owner, group: group}
	sp := s.ctxStripeFor(key)
	s.rlock(sp)
	defer sp.mu.RUnlock()
	st, ok := sp.contexts[key]
	if !ok {
		return nil
	}
	return st.cur.Clone()
}

// HeadStamp returns the stamp of the head write, zero when absent.
func (s *Server) HeadStamp(group, item string) timestamp.Stamp {
	if w := s.Head(group, item); w != nil {
		return w.Stamp
	}
	return timestamp.Stamp{}
}

// callerParity buckets caller names for Equivocate mode.
func callerParity(from string) bool {
	h := fnv.New32a()
	_, _ = h.Write([]byte(from))
	return h.Sum32()%2 == 0
}

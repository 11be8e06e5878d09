// Package gossip implements the dissemination component of the secure
// store (Section 4): "servers keep themselves informed about updates in
// which they do not directly participate via a gossip or dissemination
// protocol". The paper deliberately leaves the mechanism open, requiring
// only that non-faulty servers eventually exchange signed updates; this
// implementation offers push anti-entropy (each round, a server forwards
// entire signed write messages its peer has not acknowledged to a random
// subset of peers), pull anti-entropy (a server fetches what it missed —
// how a rejoining replica catches up), and the classic push-pull
// combination, with the round period and fanout as the tuning knobs whose
// effect experiment E4 measures.
package gossip

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"securestore/internal/server"
	"securestore/internal/trace"
	"securestore/internal/transport"
	"securestore/internal/wire"
)

// Mode selects the anti-entropy direction(s) an engine uses each round.
type Mode int

// Gossip modes. Push spreads fresh writes fastest; pull lets a lagging or
// rejoining replica catch up at its own initiative; PushPull does both —
// the classic epidemic combination (ref [7]).
const (
	Push Mode = iota + 1
	Pull
	PushPull
)

// Engine runs dissemination for one replica.
type Engine struct {
	srv    *server.Server
	caller transport.Caller
	peers  []string

	interval time.Duration
	fanout   int
	timeout  time.Duration
	mode     Mode
	batch    int
	tracer   *trace.Tracer

	mu        sync.Mutex
	rng       *rand.Rand
	acked     map[string]uint64 // per-peer high-water: what we pushed to them
	pulled    map[string]uint64 // per-peer high-water: what we pulled from them
	peerEpoch map[string]uint64 // last epoch seen in a peer's pull reply
	selfEpoch uint64            // our server's epoch when acked was last valid
	round     int               // Round() invocations, for failure backoff
	fails     map[string]int    // consecutive failed exchanges per peer
	nextTry   map[string]int    // round before which a failing peer is skipped

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// maxPeerBackoff caps the per-peer failure backoff at this many rounds, so
// a recovered peer is re-probed within a bounded delay.
const maxPeerBackoff = 32

// maxPullPages bounds how many reply pages one pullFrom exchange will
// follow. A Byzantine peer answering More=true forever must not pin the
// puller in an endless loop; the cap is generous enough (batch×pages
// writes) that an honest catch-up never hits it.
const maxPullPages = 1024

// Option configures an Engine.
type Option interface{ apply(*Engine) }

type optionFunc func(*Engine)

func (f optionFunc) apply(e *Engine) { f(e) }

// WithInterval sets the gossip round period (default 50ms).
func WithInterval(d time.Duration) Option {
	return optionFunc(func(e *Engine) { e.interval = d })
}

// WithFanout sets how many peers are pushed to per round (default 2).
func WithFanout(k int) Option {
	return optionFunc(func(e *Engine) { e.fanout = k })
}

// WithTimeout sets the per-push call timeout (default 2s).
func WithTimeout(d time.Duration) Option {
	return optionFunc(func(e *Engine) { e.timeout = d })
}

// WithSeed seeds peer selection for reproducible experiments.
func WithSeed(seed int64) Option {
	return optionFunc(func(e *Engine) { e.rng = rand.New(rand.NewSource(seed)) })
}

// WithTracer records each gossip round — and its per-peer push/pull
// exchanges — as spans on t. Nil disables tracing (the default).
func WithTracer(t *trace.Tracer) Option {
	return optionFunc(func(e *Engine) { e.tracer = t })
}

// WithMode selects push, pull, or push-pull anti-entropy (default Push).
func WithMode(m Mode) Option {
	return optionFunc(func(e *Engine) { e.mode = m })
}

// WithBatchSize caps the writes carried per gossip frame (default
// wire.DefaultGossipBatch). Pushes chunk their backlog into batches of n,
// and pulls ask peers for pages of at most n, so no single frame ever
// materializes an unbounded write slice. Non-positive n keeps the default.
func WithBatchSize(n int) Option {
	return optionFunc(func(e *Engine) {
		if n > 0 {
			e.batch = n
		}
	})
}

// New creates a gossip engine for srv, pushing through caller to peers
// (the other servers' names).
func New(srv *server.Server, caller transport.Caller, peers []string, opts ...Option) *Engine {
	e := &Engine{
		srv:       srv,
		caller:    caller,
		peers:     append([]string(nil), peers...),
		interval:  50 * time.Millisecond,
		fanout:    2,
		timeout:   2 * time.Second,
		mode:      Push,
		batch:     wire.DefaultGossipBatch,
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
		acked:     make(map[string]uint64),
		pulled:    make(map[string]uint64),
		peerEpoch: make(map[string]uint64),
		selfEpoch: srv.Epoch(),
		fails:     make(map[string]int),
		nextTry:   make(map[string]int),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, opt := range opts {
		opt.apply(e)
	}
	if e.fanout > len(e.peers) {
		e.fanout = len(e.peers)
	}
	return e
}

// Start launches the background gossip loop. Calling Start more than once
// is a no-op.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()
	go e.loop()
}

// Stop terminates the loop and waits for it to exit. Stopping a never
// started engine returns immediately.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	if started {
		<-e.done
	}
}

func (e *Engine) loop() {
	defer close(e.done)
	ticker := time.NewTicker(e.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			e.Round()
		case <-e.stop:
			return
		}
	}
}

// Round performs one gossip round against fanout randomly chosen peers,
// in the configured mode. Peers whose recent exchanges failed are skipped
// for an exponentially growing number of rounds (capped at
// maxPeerBackoff), so a crashed or partitioned-away peer does not consume
// the round's fanout — and its timeout budget — every period. Round
// returns the total number of writes exchanged (applied remotely by
// pushes plus applied locally by pulls). Exposed so tests and experiments
// can drive gossip deterministically.
func (e *Engine) Round() int {
	e.mu.Lock()
	e.round++
	e.mu.Unlock()
	ctx, sp := trace.StartRoot(context.Background(), e.tracer, "gossip.round")
	e.resyncEpoch()
	peers := e.pickPeers()
	applied := 0
	for _, peer := range peers {
		if e.mode == Push || e.mode == PushPull {
			applied += e.pushTo(ctx, peer)
		}
		if e.mode == Pull || e.mode == PushPull {
			applied += e.pullFrom(ctx, peer)
		}
	}
	sp.SetAttr("peers", fmt.Sprint(len(peers)))
	sp.SetAttr("applied", fmt.Sprint(applied))
	sp.End()
	return applied
}

// PushAll pushes pending updates to every peer once (used by convergence
// helpers). It ignores the failure backoff: convergence helpers want a
// deterministic full sweep.
func (e *Engine) PushAll() int {
	ctx := trace.WithTracer(context.Background(), e.tracer)
	e.resyncEpoch()
	applied := 0
	for _, peer := range e.peers {
		applied += e.pushTo(ctx, peer)
	}
	return applied
}

// PullAll pulls pending updates from every peer once, ignoring the
// failure backoff.
func (e *Engine) PullAll() int {
	ctx := trace.WithTracer(context.Background(), e.tracer)
	applied := 0
	for _, peer := range e.peers {
		applied += e.pullFrom(ctx, peer)
	}
	return applied
}

// resyncEpoch detects that our own server restarted (its epoch changed):
// the rebuilt update log renumbers entries, so every push high-water mark
// is stale and pushing must restart from zero. Writes are self-verifying
// and deduplicated by receivers, so over-pushing is safe; skipping is not.
func (e *Engine) resyncEpoch() {
	epoch := e.srv.Epoch()
	e.mu.Lock()
	defer e.mu.Unlock()
	if epoch != e.selfEpoch {
		e.selfEpoch = epoch
		e.acked = make(map[string]uint64)
	}
}

// pickPeers selects up to fanout peers that are not in failure backoff.
func (e *Engine) pickPeers() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	eligible := make([]string, 0, len(e.peers))
	for _, p := range e.peers {
		if e.round >= e.nextTry[p] {
			eligible = append(eligible, p)
		}
	}
	if e.fanout >= len(eligible) {
		return eligible
	}
	idx := e.rng.Perm(len(eligible))[:e.fanout]
	out := make([]string, 0, e.fanout)
	for _, i := range idx {
		out = append(out, eligible[i])
	}
	return out
}

// recordExchange tracks per-peer success/failure for the backoff: each
// consecutive failure doubles the number of rounds the peer is skipped,
// up to maxPeerBackoff; any success resets it.
func (e *Engine) recordExchange(peer string, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ok {
		delete(e.fails, peer)
		delete(e.nextTry, peer)
		return
	}
	e.fails[peer]++
	backoff := 1 << min(e.fails[peer], 10)
	if backoff > maxPeerBackoff {
		backoff = maxPeerBackoff
	}
	e.nextTry[peer] = e.round + backoff
}

func (e *Engine) pushTo(parent context.Context, peer string) int {
	// A crashed or mute replica sends nothing; other fault modes may keep
	// gossiping (their pushes are self-verifying signed writes anyway).
	if f := e.srv.Fault(); f == server.Crash || f == server.Mute {
		return 0
	}
	e.mu.Lock()
	after := e.acked[peer]
	e.mu.Unlock()

	writes, seq := e.srv.UpdatesSince(after)
	if len(writes) == 0 {
		return 0
	}

	sp := trace.Leaf(parent, "gossip.push")
	sp.SetAttr("peer", peer)
	sp.SetAttr("writes", fmt.Sprint(len(writes)))
	sp.SetAttr("frames", fmt.Sprint((len(writes)+e.batch-1)/e.batch))
	defer sp.End()
	// The backlog ships in bounded chunks (batch writes per frame). The
	// high-water mark advances only after every chunk is acknowledged: a
	// mid-backlog failure re-pushes from the start next round, which is
	// safe (receivers deduplicate) where skipping would not be.
	applied := 0
	for start := 0; start < len(writes); start += e.batch {
		chunk := writes[start:min(start+e.batch, len(writes))]
		ctx, cancel := context.WithTimeout(parent, e.timeout)
		resp, err := e.caller.Call(ctx, peer, wire.GossipPushReq{From: e.srv.ID(), Writes: chunk})
		cancel()
		if err != nil {
			sp.SetError(err)
			e.recordExchange(peer, false)
			return applied
		}
		ack, ok := resp.(wire.GossipPushResp)
		if !ok {
			// A Byzantine peer answering with a malformed ack must not count
			// as delivery: advancing the high-water mark here would make this
			// pusher permanently skip these writes for that peer.
			e.recordExchange(peer, false)
			return applied
		}
		applied += ack.Applied
	}
	e.recordExchange(peer, true)
	e.mu.Lock()
	if seq > e.acked[peer] {
		e.acked[peer] = seq
	}
	e.mu.Unlock()
	return applied
}

// pullFrom fetches the peer's updates past our high-water mark and
// applies them locally through full validation, one page per batched
// ingest.
func (e *Engine) pullFrom(parent context.Context, peer string) int {
	// A stale replica discards fresh updates (it serves only its oldest
	// state), so pulling while stale would advance the high-water mark
	// over writes that were never integrated — leaving a permanent gap
	// once the replica heals. Skip, and catch up after healing.
	if f := e.srv.Fault(); f == server.Crash || f == server.Mute || f == server.Stale {
		return 0
	}
	sp := trace.Leaf(parent, "gossip.pull")
	sp.SetAttr("peer", peer)
	defer sp.End()
	applied := 0
	pages := 0
	for attempt := 0; attempt < 2; attempt++ {
		e.mu.Lock()
		after := e.pulled[peer]
		e.mu.Unlock()

		// One exchange may span several bounded pages. In-window pages
		// advance After (each page's Seq is its last entry) and are adopted
		// immediately; state-transfer pages keep After fixed and walk the
		// peer's item keys via Cursor, adopting the first page's Seq
		// snapshot only when the transfer completes — a write the peer
		// accepts mid-transfer has a higher sequence number than that
		// snapshot, so the next in-window pull fetches it even if its item
		// key was already swept past.
		cursor := ""
		var transferSeq uint64
		transferring := false
		restarted := false
		for {
			pages++
			if pages > maxPullPages {
				// A Byzantine peer can answer More=true forever; bound the
				// work per exchange and leave the mark wherever honest pages
				// legitimately advanced it.
				e.recordExchange(peer, false)
				return applied
			}
			ctx, cancel := context.WithTimeout(parent, e.timeout)
			resp, err := e.caller.Call(ctx, peer, wire.GossipPullReq{From: e.srv.ID(), After: after, Limit: e.batch, Cursor: cursor})
			cancel()
			if err != nil {
				sp.SetError(err)
				e.recordExchange(peer, false)
				return applied
			}
			pr, ok := resp.(wire.GossipPullResp)
			if !ok {
				e.recordExchange(peer, false)
				return applied
			}
			applied += e.srv.ApplyDisseminated(pr.Writes...)
			e.mu.Lock()
			prev, seen := e.peerEpoch[peer]
			e.peerEpoch[peer] = pr.Epoch
			restarted = seen && prev != pr.Epoch
			if restarted {
				// The peer restarted: its rebuilt update log renumbers
				// entries, so our mark may point past (or into the middle
				// of) a log that no longer matches it. Resynchronize from
				// zero and re-pull in the same exchange — a convergence
				// sweep must observe any renumbered updates now, not a
				// sweep later (receivers deduplicate, so over-fetching is
				// safe).
				e.pulled[peer] = 0
			}
			e.mu.Unlock()
			if restarted {
				break // abandon this exchange's pages; re-pull from zero
			}
			if pr.More && pr.Cursor != "" {
				// State transfer continues: hold After, follow the cursor.
				if !transferring {
					transferring, transferSeq = true, pr.Seq
				}
				cursor = pr.Cursor
				continue
			}
			if pr.More {
				// In-window page: Seq is the last entry returned, safe to
				// adopt now and continue from there.
				e.advancePulled(peer, pr.Seq)
				after, cursor = pr.Seq, ""
				continue
			}
			final := pr.Seq
			if transferring {
				final = transferSeq
			}
			e.advancePulled(peer, final)
			e.recordExchange(peer, true)
			break
		}
		if !restarted {
			break
		}
	}
	return applied
}

// advancePulled raises (never lowers) the per-peer pull high-water mark.
func (e *Engine) advancePulled(peer string, seq uint64) {
	e.mu.Lock()
	if seq > e.pulled[peer] {
		e.pulled[peer] = seq
	}
	e.mu.Unlock()
}

// Converge drives full sweeps across all engines until a sweep applies no
// new writes anywhere (or maxSweeps is hit), respecting each engine's
// configured mode: a pull-only engine converges by pulling and a
// push-pull engine does both — previously Converge drove PushAll on every
// engine, so pull-only ablations (A5) quietly converged via the pushes
// they claimed to disable. The pull direction also matters for recovery:
// pushers skip updates a peer already (possibly falsely) acknowledged, so
// a replica that lied while Byzantine — or was wiped by a crash — closes
// its gaps only by pulling them itself. It returns the number of sweeps
// performed. Used by tests and experiments that need the store fully
// disseminated before measuring.
func Converge(engines []*Engine, maxSweeps int) int {
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		applied := 0
		for _, e := range engines {
			if e.mode == Pull || e.mode == PushPull {
				applied += e.PullAll()
			}
			if e.mode == Push || e.mode == PushPull {
				applied += e.PushAll()
			}
		}
		if applied == 0 {
			return sweep
		}
	}
	return maxSweeps
}

package main

// tracing.go records spans for the traced run from the benchmark's side of
// each layer boundary: the driver opens a span around every Client.Read
// and Client.Write, a wrapper around transport.Caller records every RPC
// the client (or a replica's gossip engine) makes, and a wrapper around
// the replica's ServeRequest records every request served. Spans stay in
// memory and are written out when the process ends. The untraced run uses
// none of these wrappers.

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"securestore/internal/transport"
	"securestore/internal/wire"
)

// span is one recorded interval, as offsets from the recorder's origin.
// A client operation's span has Parent 0 and Op equal to its own ID; the
// RPC spans it causes carry the same Op and name it as Parent.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Peer   string        `json:"peer,omitempty"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	Err    bool          `json:"err,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// spanRecorder keeps spans in memory. Safe for concurrent use.
type spanRecorder struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

func (r *spanRecorder) now() time.Duration { return time.Since(r.origin) }

func (r *spanRecorder) add(s span) {
	s.ID = r.nextID.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and starts a fresh set.
func (r *spanRecorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// opKey is the context key under which an operation's span ID travels from
// the driver, through the client and quorum code, to the caller wrapper.
type opKey struct{}

// withOp reserves a span ID for an operation and attaches it to ctx.
func (r *spanRecorder) withOp(ctx context.Context) (context.Context, int64) {
	id := r.nextID.Add(1)
	return context.WithValue(ctx, opKey{}, id), id
}

// endOp records an operation span under the ID withOp reserved.
func (r *spanRecorder) endOp(id int64, name string, start, end time.Duration, err error) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Op: id, Name: name, Start: start, End: end, Err: err != nil})
	r.mu.Unlock()
}

// tracingCaller wraps a transport.Caller, recording one span per call
// under the calling operation's ID. Replies and errors pass unchanged.
type tracingCaller struct {
	next transport.Caller
	rec  *spanRecorder
}

var _ transport.Caller = (*tracingCaller)(nil)

func (c *tracingCaller) Origin() string { return c.next.Origin() }

func (c *tracingCaller) Call(ctx context.Context, to string, req wire.Request) (wire.Response, error) {
	start := c.rec.now()
	resp, err := c.next.Call(ctx, to, req)
	end := c.rec.now()
	op, _ := ctx.Value(opKey{}).(int64)
	c.rec.add(span{Parent: op, Op: op, Name: "rpc." + wire.RequestName(req), Peer: to, Start: start, End: end, Err: err != nil})
	return resp, err
}

// tracingHandler wraps a replica's request handler, recording one span per
// request served, named after the request kind, with the sender as Peer.
type tracingHandler struct {
	next transport.Handler
	rec  *spanRecorder
}

var _ transport.Handler = (*tracingHandler)(nil)

func (h *tracingHandler) ServeRequest(ctx context.Context, from string, req wire.Request) (wire.Response, error) {
	start := h.rec.now()
	resp, err := h.next.ServeRequest(ctx, from, req)
	h.rec.add(span{Name: "serve." + wire.RequestName(req), Peer: from, Start: start, End: h.rec.now(), Err: err != nil})
	return resp, err
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// kindDurations groups span durations by span name.
func kindDurations(spans []span, unit func(time.Duration) float64) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], unit(s.End-s.Start))
	}
	return out
}

// opBreakdown is the per-operation view of a client trace.
type opBreakdown struct {
	read    bool
	service time.Duration // the Client call's span
	self    time.Duration // service minus the union of its RPC spans
	rpcs    int
	rpcErrs int
}

// breakdown joins client operation spans with their RPC spans.
func breakdown(spans []span) []opBreakdown {
	rpcs := make(map[int64][]span)
	var ops []span
	for _, s := range spans {
		if s.Parent != 0 {
			rpcs[s.Parent] = append(rpcs[s.Parent], s)
		} else if s.Name == "client.read" || s.Name == "client.write" {
			ops = append(ops, s)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	out := make([]opBreakdown, 0, len(ops))
	for _, o := range ops {
		children := rpcs[o.ID]
		parts := make([]interval, 0, len(children))
		b := opBreakdown{read: o.Name == "client.read", service: o.End - o.Start, rpcs: len(children)}
		for _, c := range children {
			parts = append(parts, c.interval())
			if c.Err {
				b.rpcErrs++
			}
		}
		b.self = b.service - unionWithin(o.interval(), parts)
		out = append(out, b)
	}
	return out
}

package fragstore

// hedge_test.go — adversity tests for the hedged fragmented read: the
// partial fan-out must stay correct and live when the servers it chose to
// trust with full-share requests stall or lie, and its cancellation must
// not leak goroutines.

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"securestore/internal/cryptoutil"
	"securestore/internal/metrics"
	"securestore/internal/server"
	"securestore/internal/transport"
	"securestore/internal/wire"
)

// gateCaller wraps the rig's bus caller with per-server behavior: stalled
// servers block until the call context is cancelled (a silent straggler,
// not a fast failure) and every ValueReq send is counted per server.
type gateCaller struct {
	inner transport.Caller

	mu         sync.Mutex
	stalled    map[string]bool
	valueSends map[string]int
	metaSends  map[string]int
}

func newGateCaller(inner transport.Caller) *gateCaller {
	return &gateCaller{
		inner:      inner,
		stalled:    make(map[string]bool),
		valueSends: make(map[string]int),
		metaSends:  make(map[string]int),
	}
}

func (g *gateCaller) stall(server string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stalled[server] = true
}

func (g *gateCaller) valueAskedServers() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.valueSends)
}

func (g *gateCaller) contactedServers() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := make(map[string]bool, len(g.valueSends)+len(g.metaSends))
	for s := range g.valueSends {
		seen[s] = true
	}
	for s := range g.metaSends {
		seen[s] = true
	}
	return len(seen)
}

func (g *gateCaller) Call(ctx context.Context, to string, req wire.Request) (wire.Response, error) {
	g.mu.Lock()
	switch req.(type) {
	case wire.ValueReq:
		g.valueSends[to]++
	case wire.MetaReq:
		g.metaSends[to]++
	}
	blocked := g.stalled[to]
	g.mu.Unlock()
	if blocked {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return g.inner.Call(ctx, to, req)
}

func (g *gateCaller) Origin() string { return g.inner.Origin() }

// hedgeStore builds a store over the rig with an inspectable caller, its
// own counters, and a fixed hedge delay.
func hedgeStore(t *testing.T, r *rig, b, k int, hedge time.Duration) (*Store, *gateCaller, *metrics.Counters) {
	t.Helper()
	key := cryptoutil.DeterministicKeyPair("owner", "s")
	_ = r.ring.Register(key.ID, key.Public)
	m := &metrics.Counters{}
	gc := newGateCaller(r.bus.Caller(key.ID, m))
	s, err := New(Config{
		ID: key.ID, Key: key, Ring: r.ring, Servers: r.names,
		B: b, K: k, Group: "g",
		Caller: gc, Metrics: m,
		CallTimeout: 5 * time.Second,
		HedgeDelay:  hedge,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, gc, m
}

// TestHealthyReadContactsKPlusB: in the common case a fragmented read
// sends full-share requests to exactly k servers and stamp probes to b
// more — never the full n fan-out — the hedge does not fire, and the
// bytes-saved estimate is credited.
func TestHealthyReadContactsKPlusB(t *testing.T) {
	r := newRig(t, 5)
	s, gc, m := hedgeStore(t, r, 1, 3, time.Second)
	ctx := context.Background()
	data := make([]byte, 8<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := s.Write(ctx, "doc", data); err != nil {
		t.Fatal(err)
	}
	// Write returns after k+b acks and fragments are not gossiped: wait
	// (bounded) for the trailing share to land, so the read below sees
	// the healthy all-n state it is meant to measure.
	r.waitHeld(t, "doc")
	gc.mu.Lock()
	gc.valueSends = make(map[string]int)
	gc.metaSends = make(map[string]int)
	gc.mu.Unlock()

	got, _, err := s.Read(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
	if v := gc.valueAskedServers(); v != 3 {
		t.Fatalf("full-share requests went to %d servers, want k=3", v)
	}
	if c := gc.contactedServers(); c != 4 {
		t.Fatalf("read contacted %d servers, want k+b=4", c)
	}
	if h := m.FragReadHedges(); h != 0 {
		t.Fatalf("hedge fired %d times on a healthy read", h)
	}
	if saved := m.FragReadBytesSaved(); saved <= 0 {
		t.Fatal("no bytes-saved credit on a partial fan-out read")
	}
}

// TestHedgeFiresOnStalledServer: when one of the k full-share servers
// stalls silently, the hedge timer (not the call timeout) unblocks the
// read by value-asking the remaining servers, and the hedge is counted.
func TestHedgeFiresOnStalledServer(t *testing.T) {
	r := newRig(t, 5)
	s, gc, m := hedgeStore(t, r, 1, 3, 25*time.Millisecond)
	ctx := context.Background()
	data := []byte("survives one silent straggler among the chosen k")
	if _, err := s.Write(ctx, "doc", data); err != nil {
		t.Fatal(err)
	}
	gc.stall(r.names[0])

	start := time.Now()
	got, _, err := s.Read(ctx, "doc")
	if err != nil {
		t.Fatalf("read with stalled server: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
	if elapsed := time.Since(start); elapsed >= s.cfg.CallTimeout {
		t.Fatalf("read took %v: waited out the call timeout instead of hedging", elapsed)
	}
	if h := m.FragReadHedges(); h != 1 {
		t.Fatalf("hedge count = %d, want 1", h)
	}
}

// TestByzantineSharesEscalate: a Byzantine server among the chosen k
// returns forged share bytes; verification drops them and the read
// escalates to fetch replacement shares from servers beyond the initial
// k+b, still returning the correct value.
func TestByzantineSharesEscalate(t *testing.T) {
	r := newRig(t, 5)
	s, gc, _ := hedgeStore(t, r, 1, 3, time.Second)
	ctx := context.Background()
	data := []byte("forged shares fail their cross-checksum and are replaced")
	if _, err := s.Write(ctx, "doc", data); err != nil {
		t.Fatal(err)
	}
	r.servers[0].SetFault(server.CorruptValue)

	got, _, err := s.Read(ctx, "doc")
	if err != nil {
		t.Fatalf("read with Byzantine server: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
	if v := gc.valueAskedServers(); v <= 3 {
		t.Fatalf("full-share requests went to %d servers, want escalation past k=3", v)
	}
}

// TestHedgedReadCancelsWithoutLeak: goroutines launched for calls that
// never resolve (a stalled server) must exit once the read completes and
// its context is cancelled — run under -race in CI.
func TestHedgedReadCancelsWithoutLeak(t *testing.T) {
	r := newRig(t, 5)
	s, gc, _ := hedgeStore(t, r, 1, 3, 20*time.Millisecond)
	ctx := context.Background()
	data := []byte("no goroutine outlives its read")
	if _, err := s.Write(ctx, "doc", data); err != nil {
		t.Fatal(err)
	}
	gc.stall(r.names[0])
	baseline := runtime.NumGoroutine()

	for i := 0; i < 10; i++ {
		if _, _, err := s.Read(ctx, "doc"); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

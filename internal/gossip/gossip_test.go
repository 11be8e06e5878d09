package gossip

import (
	"context"
	"testing"
	"time"

	"securestore/internal/cryptoutil"
	"securestore/internal/metrics"
	"securestore/internal/server"
	"securestore/internal/timestamp"
	"securestore/internal/transport"
	"securestore/internal/wire"
)

// mesh builds n servers on one bus with gossip engines.
type mesh struct {
	bus     *transport.Bus
	servers []*server.Server
	engines []*Engine
	writer  cryptoutil.KeyPair
}

func newMesh(t *testing.T, n int, opts ...Option) *mesh {
	t.Helper()
	ring := cryptoutil.NewKeyring()
	writer := cryptoutil.DeterministicKeyPair("writer", "s")
	ring.MustRegister(writer.ID, writer.Public)
	bus := transport.NewBus(nil)

	m := &mesh{bus: bus, writer: writer}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = string(rune('a' + i))
	}
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{ID: names[i], Ring: ring})
		srv.RegisterGroup("g", server.Policy{Consistency: wire.MRC})
		bus.Register(names[i], srv)
		m.servers = append(m.servers, srv)
	}
	for i, srv := range m.servers {
		var peers []string
		for j, name := range names {
			if j != i {
				peers = append(peers, name)
			}
		}
		engineOpts := append([]Option{WithSeed(int64(i)), WithFanout(n - 1)}, opts...)
		m.engines = append(m.engines, New(srv, bus.Caller(srv.ID(), &metrics.Counters{}), peers, engineOpts...))
	}
	return m
}

func (m *mesh) writeTo(t *testing.T, idx int, item string, value []byte, ts uint64) {
	t.Helper()
	w := &wire.SignedWrite{Group: "g", Item: item, Stamp: timestamp.Stamp{Time: ts}, Value: value}
	w.Sign(m.writer, nil)
	if _, err := m.servers[idx].ServeRequest(context.Background(), "writer", wire.WriteReq{Write: w}); err != nil {
		t.Fatal(err)
	}
}

func TestPushSpreadsWrites(t *testing.T) {
	m := newMesh(t, 3)
	m.writeTo(t, 0, "x", []byte("v"), 1)

	applied := m.engines[0].PushAll()
	if applied != 2 {
		t.Fatalf("applied = %d, want 2 (both peers fresh)", applied)
	}
	for i, srv := range m.servers {
		if srv.Head("g", "x") == nil {
			t.Fatalf("server %d missing the write", i)
		}
	}
}

func TestPushIdempotent(t *testing.T) {
	m := newMesh(t, 3)
	m.writeTo(t, 0, "x", []byte("v"), 1)
	m.engines[0].PushAll()
	// Nothing new: no messages applied.
	if applied := m.engines[0].PushAll(); applied != 0 {
		t.Fatalf("second push applied %d, want 0", applied)
	}
}

func TestConvergeTransitive(t *testing.T) {
	// Write lands at server 0; gossip must reach server 3 even when each
	// round only pushes to a subset.
	m := newMesh(t, 4, WithFanout(1))
	m.writeTo(t, 0, "x", []byte("v"), 1)
	Converge(m.engines, 50)
	for i, srv := range m.servers {
		if srv.Head("g", "x") == nil {
			t.Fatalf("server %d missing the write after convergence", i)
		}
	}
}

func TestConvergeBidirectional(t *testing.T) {
	// Different writes at different servers: all must end with both.
	m := newMesh(t, 3)
	m.writeTo(t, 0, "x", []byte("vx"), 1)
	m.writeTo(t, 2, "y", []byte("vy"), 1)
	Converge(m.engines, 20)
	for i, srv := range m.servers {
		if srv.Head("g", "x") == nil || srv.Head("g", "y") == nil {
			t.Fatalf("server %d missing writes", i)
		}
	}
}

func TestNewerWriteWins(t *testing.T) {
	m := newMesh(t, 2)
	m.writeTo(t, 0, "x", []byte("old"), 1)
	m.writeTo(t, 1, "x", []byte("new"), 2)
	Converge(m.engines, 20)
	for i, srv := range m.servers {
		if head := srv.Head("g", "x"); string(head.Value) != "new" {
			t.Fatalf("server %d head = %q, want new", i, head.Value)
		}
	}
}

func TestBackgroundLoop(t *testing.T) {
	m := newMesh(t, 3, WithInterval(5*time.Millisecond))
	for _, e := range m.engines {
		e.Start()
	}
	defer func() {
		for _, e := range m.engines {
			e.Stop()
		}
	}()

	m.writeTo(t, 0, "x", []byte("v"), 1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		all := true
		for _, srv := range m.servers {
			if srv.Head("g", "x") == nil {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background gossip never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStopIdempotentAndUnstarted(t *testing.T) {
	m := newMesh(t, 2)
	e := m.engines[0]
	e.Stop() // never started: returns immediately
	e.Stop()

	e2 := m.engines[1]
	e2.Start()
	e2.Start() // double start is a no-op
	e2.Stop()
	e2.Stop()
}

func TestRoundRespectsFanout(t *testing.T) {
	m := newMesh(t, 5, WithFanout(2))
	m.writeTo(t, 0, "x", []byte("v"), 1)
	m.engines[0].Round()
	have := 0
	for _, srv := range m.servers[1:] {
		if srv.Head("g", "x") != nil {
			have++
		}
	}
	if have != 2 {
		t.Fatalf("one round reached %d peers, want exactly fanout=2", have)
	}
}

func TestCrashedPeerDoesNotBlockOthers(t *testing.T) {
	m := newMesh(t, 3, WithTimeout(100*time.Millisecond))
	m.servers[1].SetFault(server.Crash)
	m.writeTo(t, 0, "x", []byte("v"), 1)
	m.engines[0].PushAll()
	if m.servers[2].Head("g", "x") == nil {
		t.Fatal("healthy peer did not receive the push")
	}
	// The crashed peer's high-water mark was not advanced: once healed it
	// receives the write on the next push.
	m.servers[1].SetFault(server.Healthy)
	m.engines[0].PushAll()
	if m.servers[1].Head("g", "x") == nil {
		t.Fatal("healed peer never caught up")
	}
}

func TestPullCatchesUp(t *testing.T) {
	m := newMesh(t, 3, WithMode(Pull))
	m.writeTo(t, 0, "x", []byte("v"), 1)

	// Server 2 pulls from server 0 and learns the write without 0 pushing.
	applied := m.engines[2].PullAll()
	if applied == 0 {
		t.Fatal("pull applied nothing")
	}
	if m.servers[2].Head("g", "x") == nil {
		t.Fatal("pulling server missing the write")
	}
	// Second pull: nothing new.
	if applied := m.engines[2].PullAll(); applied != 0 {
		t.Fatalf("second pull applied %d, want 0", applied)
	}
}

func TestPullRejectsTamperedUpdates(t *testing.T) {
	m := newMesh(t, 2, WithMode(Pull))
	m.writeTo(t, 0, "x", []byte("good"), 1)
	// Tamper directly through ApplyDisseminated with a forged write.
	w := &wire.SignedWrite{Group: "g", Item: "y", Stamp: timestamp.Stamp{Time: 1}, Value: []byte("forged")}
	w.Sign(m.writer, nil)
	w.Value = []byte("altered")
	if m.servers[1].ApplyDisseminated(w) != 0 {
		t.Fatal("tampered pulled write applied")
	}
	if m.servers[1].Head("g", "y") != nil {
		t.Fatal("tampered pulled write stored")
	}
}

func TestPushPullConverges(t *testing.T) {
	m := newMesh(t, 4, WithMode(PushPull), WithFanout(1))
	m.writeTo(t, 0, "x", []byte("vx"), 1)
	m.writeTo(t, 3, "y", []byte("vy"), 1)
	Converge(m.engines, 50)
	// Push-only convergence handles pushes; rounds handle both. Drive
	// rounds explicitly for pull coverage.
	for sweep := 0; sweep < 20; sweep++ {
		moved := 0
		for _, e := range m.engines {
			moved += e.Round()
		}
		if moved == 0 {
			break
		}
	}
	for i, srv := range m.servers {
		if srv.Head("g", "x") == nil || srv.Head("g", "y") == nil {
			t.Fatalf("server %d missing writes after push-pull", i)
		}
	}
}

func TestRejoiningReplicaPullsHistory(t *testing.T) {
	// A replica that was crashed during several writes catches up with one
	// pull once healed — the scenario pull anti-entropy exists for.
	m := newMesh(t, 3, WithMode(Pull))
	m.servers[2].SetFault(server.Crash)
	for i := 1; i <= 5; i++ {
		m.writeTo(t, 0, "x", []byte{byte(i)}, uint64(i))
	}
	m.servers[2].SetFault(server.Healthy)

	if applied := m.engines[2].PullAll(); applied == 0 {
		t.Fatal("rejoining replica pulled nothing")
	}
	head := m.servers[2].Head("g", "x")
	if head == nil || head.Stamp.Time != 5 {
		t.Fatalf("rejoined head = %v, want stamp 5", head)
	}
}

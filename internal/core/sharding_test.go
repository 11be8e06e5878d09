package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"securestore/internal/checker"
	"securestore/internal/server"
	"securestore/internal/wire"
)

// TestMultiGroupTopology checks the shape of a sharded cluster: G
// disjoint replica groups with per-group names, a signed table clients
// can verify, the single-group client conveniences (ServerOrder) refused
// rather than silently misrouted, and the fragstore routing each item's
// fragments to the servers of its owning group.
func TestMultiGroupTopology(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{N: 4, B: 1, Groups: 2, Seed: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if cluster.Groups() != 2 {
		t.Fatalf("Groups() = %d, want 2", cluster.Groups())
	}
	if len(cluster.Servers) != 8 || len(cluster.GroupServers) != 2 {
		t.Fatalf("got %d servers in %d groups, want 8 in 2", len(cluster.Servers), len(cluster.GroupServers))
	}
	if got := cluster.ServerNames[0]; got != "g00-s00" {
		t.Fatalf("first server named %q, want g00-s00", got)
	}
	if got := cluster.ServerNames[7]; got != "g01-s03" {
		t.Fatalf("last server named %q, want g01-s03", got)
	}
	if cluster.Table == nil {
		t.Fatal("sharded cluster has no shard table")
	}
	if err := cluster.Table.Verify(cluster.Ring, nil); err != nil {
		t.Fatalf("cluster shard table does not verify: %v", err)
	}

	group := GroupSpec{Name: "g", Consistency: wire.MRC}
	cluster.RegisterGroup(group)

	spec := fastSpec("alice", "g")
	spec.ServerOrder = append([]string(nil), cluster.ServerNames...)
	if _, err := cluster.NewClient(spec, group); err == nil {
		t.Fatal("ServerOrder accepted on a sharded cluster")
	}
	// The fragstore is shard-aware: each item is dispersed across the
	// servers of its owning group only, and reconstructs from them.
	frag, err := cluster.NewFragStore(fastSpec("frag", "g"), group, 2)
	if err != nil {
		t.Fatalf("fragstore on a sharded cluster: %v", err)
	}
	ctx := context.Background()
	for shard, item := range itemsPerShard(t, cluster, "frag") {
		want := []byte("dispersed-on-" + shard)
		if _, err := frag.Write(ctx, item, want); err != nil {
			t.Fatalf("frag write %s (shard %s): %v", item, shard, err)
		}
		got, _, err := frag.Read(ctx, item)
		if err != nil {
			t.Fatalf("frag read %s (shard %s): %v", item, shard, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frag read %s = %q, want %q", item, got, want)
		}
		// Fragments must not leak outside the owning group. Write returns
		// after k+b acks and fragments are not gossiped, so first wait
		// (bounded) for the dispersal's trailing sends to reach every
		// owning server.
		waitHeld(t, cluster.GroupServers[cluster.Table.Place(item)], "g", item)
		for gi, servers := range cluster.GroupServers {
			owns := cluster.Table.Shards[gi].Name == shard
			for _, srv := range servers {
				if head := srv.Head("g", item); (head != nil) != owns {
					t.Fatalf("server %s (owns=%v) head=%v for %s", srv.ID(), owns, head != nil, item)
				}
			}
		}
	}

	alice, err := cluster.NewClient(fastSpec("alice", "g"), group)
	if err != nil {
		t.Fatal(err)
	}
	mustConnect(t, alice)

	// Round-trip one item per shard so both groups serve traffic.
	ctx = context.Background()
	byShard := itemsPerShard(t, cluster, "topo")
	for shard, item := range byShard {
		want := []byte("owned-by-" + shard)
		if _, err := alice.Write(ctx, item, want); err != nil {
			t.Fatalf("write %s (shard %s): %v", item, shard, err)
		}
		got, _, err := alice.Read(ctx, item)
		if err != nil {
			t.Fatalf("read %s (shard %s): %v", item, shard, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %s = %q, want %q", item, got, want)
		}
	}
}

// waitHeld waits, up to a bounded deadline, until every server holds a
// head for the item, failing the test if one never does.
func waitHeld(t *testing.T, servers []*server.Server, group, item string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, srv := range servers {
		for srv.Head(group, item) == nil {
			if time.Now().After(deadline) {
				t.Fatalf("server %s never received %s", srv.ID(), item)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// itemsPerShard finds one item name homed on each shard of the cluster's
// table, so tests can deliberately spread traffic across every group.
func itemsPerShard(t *testing.T, cluster *Cluster, prefix string) map[string]string {
	t.Helper()
	byShard := make(map[string]string, len(cluster.Table.Shards))
	for i := 0; len(byShard) < len(cluster.Table.Shards); i++ {
		if i > 10000 {
			t.Fatal("could not find an item for every shard")
		}
		item := fmt.Sprintf("%s-%04d", prefix, i)
		shard := cluster.Table.ShardFor(item).Name
		if _, ok := byShard[shard]; !ok {
			byShard[shard] = item
		}
	}
	return byShard
}

// TestMultiGroupSoak drives concurrent client sessions against a 2-group
// cluster — every operation recorded into an internal/checker History —
// and requires the checker to certify the full run: integrity (every read
// returns a written value), MRC, read-your-writes, and causal consistency
// across the shard boundary. Run under -race in CI, this is the
// regression net for the client's routing and cross-shard gating.
func TestMultiGroupSoak(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{N: 4, B: 1, Groups: 2, Seed: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	group := GroupSpec{Name: "g", Consistency: wire.CC}
	cluster.RegisterGroup(group)

	history := checker.New()
	ctx := context.Background()

	const sessions = 4
	const rounds = 12
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		cl, err := cluster.NewClient(fastSpec(fmt.Sprintf("soaker%d", s), "g"), group)
		if err != nil {
			t.Fatal(err)
		}
		mustConnect(t, cl)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Item names vary per (session, round), so the rendezvous
				// hash spreads this session's writes across both groups and
				// successive CC writes routinely cross the shard boundary —
				// exactly the path the client's cross-shard gate serializes.
				item := fmt.Sprintf("soak-%d-%d", s, r%6)
				value := []byte(fmt.Sprintf("s%d-r%d", s, r))
				stamp, err := cl.Write(ctx, item, value)
				if err != nil {
					errs <- fmt.Errorf("session %d round %d: write %s: %w", s, r, item, err)
					return
				}
				history.RecordWrite(cl.ID(), item, stamp, value, cl.Context())

				readBack := fmt.Sprintf("soak-%d-%d", s, (r+3)%6)
				got, rstamp, err := cl.Read(ctx, readBack)
				if err != nil {
					continue // transient unavailability is allowed; safety is checked below
				}
				history.RecordRead(cl.ID(), readBack, rstamp, got)
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	cluster.Converge()
	writes, reads := history.Stats()
	if writes == 0 || reads == 0 {
		t.Fatalf("soak recorded %d writes, %d reads — harness drove no load", writes, reads)
	}
	if violations := history.Check(); len(violations) != 0 {
		for _, v := range violations {
			t.Errorf("%s violation: client %s item %s: %s", v.Kind, v.Client, v.Item, v.Detail)
		}
	}
}

// TestMultiGroupCrossShardCausal pins the cross-shard causal pair down
// deterministically: dep and doc live on different shards, the writer
// always writes dep then doc, and a reader that sees doc must then see a
// dep at least as new as the one the writer had — even though the two
// groups share no servers, no WAL and no gossip mesh. The ordering
// survives on the client side alone (routing + the cross-shard gate).
func TestMultiGroupCrossShardCausal(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{N: 4, B: 1, Groups: 2, Seed: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	group := GroupSpec{Name: "g", Consistency: wire.CC}
	cluster.RegisterGroup(group)

	byShard := itemsPerShard(t, cluster, "causal")
	dep := byShard[cluster.Table.Shards[0].Name]
	doc := byShard[cluster.Table.Shards[1].Name]

	ctx := context.Background()
	writer, err := cluster.NewClient(fastSpec("writer", "g"), group)
	if err != nil {
		t.Fatal(err)
	}
	mustConnect(t, writer)
	reader, err := cluster.NewClient(fastSpec("reader", "g"), group)
	if err != nil {
		t.Fatal(err)
	}
	mustConnect(t, reader)

	for v := 1; v <= 5; v++ {
		payload := []byte(fmt.Sprintf("v%d", v))
		if _, err := writer.Write(ctx, dep, payload); err != nil {
			t.Fatalf("write dep v%d: %v", v, err)
		}
		if _, err := writer.Write(ctx, doc, payload); err != nil {
			t.Fatalf("write doc v%d: %v", v, err)
		}
		gotDoc, _, err := reader.Read(ctx, doc)
		if err != nil {
			t.Fatalf("read doc v%d: %v", v, err)
		}
		gotDep, _, err := reader.Read(ctx, dep)
		if err != nil {
			t.Fatalf("read dep after doc v%d: %v", v, err)
		}
		if string(gotDep) < string(gotDoc) {
			t.Fatalf("causality across shards violated: doc=%q but dep=%q", gotDoc, gotDep)
		}
	}
}

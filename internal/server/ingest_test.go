package server

// ingest_test.go covers the batched ingest of disseminated writes
// (handlers.go: ingest): exact duplicates of held writes cost no crypto,
// a frame of new writes verifies as one admission batch, an altered copy
// of a held write is verified and rejected without taking its
// frame-mates down, and the dissemination log's sliding window keeps
// its update windows and its per-write allocations independent of
// MaxUpdateLog.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"securestore/internal/cryptoutil"
	"securestore/internal/metrics"
	"securestore/internal/timestamp"
	"securestore/internal/wire"
)

// redeliver round-trips writes through the binary codec, so the server
// sees freshly decoded copies, as it does from a TCP peer.
func redeliver(t testing.TB, ws ...*wire.SignedWrite) []*wire.SignedWrite {
	t.Helper()
	raw, err := wire.AppendRequest(nil, wire.GossipPushReq{From: "peer", Writes: ws})
	if err != nil {
		t.Fatal(err)
	}
	req, err := wire.DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	return req.(wire.GossipPushReq).Writes
}

// push delivers one gossip frame and returns the peer-visible Applied.
func push(t testing.TB, srv *Server, ws []*wire.SignedWrite) int {
	t.Helper()
	resp, err := srv.ServeRequest(context.Background(), "peer", wire.GossipPushReq{From: "peer", Writes: ws})
	if err != nil {
		t.Fatal(err)
	}
	return resp.(wire.GossipPushResp).Applied
}

// cryptoWork sums every counter a signature check touches.
func cryptoWork(m *metrics.Counters) int64 {
	return m.Verifications() + m.VerifyCacheHits() + m.VerifyCacheMisses() + m.VerifyBatches()
}

// TestGossipIngestSkipsHeldWrites: a push of writes the replica already
// holds — as heads, and as multi-writer log entries behind a newer head —
// does no signature check and no verify-cache lookup, and still counts
// every write as applied.
func TestGossipIngestSkipsHeldWrites(t *testing.T) {
	srv, keys, m := admissionFixture(t, Policy{Consistency: wire.MRC, MultiWriter: true}, 2, 64, time.Millisecond)
	var held []*wire.SignedWrite
	for i := 0; i < 6; i++ {
		held = append(held, admissionWrite(keys[i%2], fmt.Sprintf("item-%d", i%3), []byte{byte(i)}, uint64(i+1)))
	}
	if got := push(t, srv, redeliver(t, held...)); got != len(held) {
		t.Fatalf("first delivery applied %d of %d", got, len(held))
	}
	before := cryptoWork(m)
	if got := push(t, srv, redeliver(t, held...)); got != len(held) {
		t.Fatalf("redelivery applied %d of %d, want all (duplicates count)", got, len(held))
	}
	if got := srv.ApplyDisseminated(redeliver(t, held...)...); got != 0 {
		t.Fatalf("pulled duplicates changed state %d times", got)
	}
	if work := cryptoWork(m) - before; work != 0 {
		t.Fatalf("redelivering held writes cost %d verifications/cache lookups/batches, want 0", work)
	}
}

// TestGossipIngestBatchesNewWrites: a push of m new writes verifies them
// as one admission batch of m, and a pulled page does the same.
func TestGossipIngestBatchesNewWrites(t *testing.T) {
	const m = 12
	srv, keys, met := admissionFixture(t, Policy{Consistency: wire.MRC, MultiWriter: true}, 3, 64, time.Millisecond)
	frame := func(prefix string) []*wire.SignedWrite {
		var ws []*wire.SignedWrite
		for i := 0; i < m; i++ {
			ws = append(ws, admissionWrite(keys[i%3], fmt.Sprintf("%s-%d", prefix, i), []byte(prefix), 1))
		}
		return redeliver(t, ws...)
	}
	if got := push(t, srv, frame("push")); got != m {
		t.Fatalf("push applied %d of %d", got, m)
	}
	if b, s := met.VerifyBatches(), met.VerifyBatchSizes().Sum(); b != 1 || s != m {
		t.Fatalf("push verified in %d batches of %d signatures total, want 1 batch of %d", b, s, m)
	}
	if got := srv.ApplyDisseminated(frame("pull")...); got != m {
		t.Fatalf("pull changed %d of %d", got, m)
	}
	if b, s := met.VerifyBatches(), met.VerifyBatchSizes().Sum(); b != 2 || s != 2*m {
		t.Fatalf("after the pull: %d batches of %d signatures total, want 2 of %d each", b, s, m)
	}
	if v := met.Verifications(); v != 2*m {
		t.Fatalf("verifications = %d, want %d: each new write exactly once", v, 2*m)
	}
}

// TestGossipIngestBatchesAtCap: a frame larger than the admission cap is
// verified in cap-sized batches.
func TestGossipIngestBatchesAtCap(t *testing.T) {
	srv, keys, met := admissionFixture(t, Policy{Consistency: wire.MRC, MultiWriter: true}, 1, 4, time.Millisecond)
	var ws []*wire.SignedWrite
	for i := 0; i < 10; i++ {
		ws = append(ws, admissionWrite(keys[0], fmt.Sprintf("item-%d", i), []byte("v"), 1))
	}
	if got := push(t, srv, redeliver(t, ws...)); got != len(ws) {
		t.Fatalf("applied %d of %d", got, len(ws))
	}
	if b := met.VerifyBatches(); b != 3 {
		t.Fatalf("10 writes at cap 4 verified in %d batches, want 3", b)
	}
}

// TestGossipIngestRejectsAlteredCopies: a copy of the held head with one
// signed field or signature byte changed is no duplicate. It takes the
// full path and is rejected, and the new writes sharing its frame are
// still accepted.
func TestGossipIngestRejectsAlteredCopies(t *testing.T) {
	// sigChecked: the change survives the non-signature checks (stamp
	// discipline) and is caught by the signature itself.
	alter := map[string]struct {
		change     func(w *wire.SignedWrite)
		sigChecked bool
	}{
		"value byte": {func(w *wire.SignedWrite) { w.Value[0] ^= 1 }, false},
		"sig byte":   {func(w *wire.SignedWrite) { w.Sig[7] ^= 1 }, true},
		"context": {func(w *wire.SignedWrite) {
			w.WriterCtx["other"] = timestamp.Stamp{Time: 9, Writer: w.Writer}
		}, true},
		"stamp writer": {func(w *wire.SignedWrite) { w.Stamp.Writer = "w01" }, false},
	}
	for name, c := range alter {
		t.Run(name, func(t *testing.T) {
			// Multi-writer MRC: stamps name their writer, contexts are
			// signed, and no causal gating decides the outcome.
			srv, keys, m := admissionFixture(t, Policy{Consistency: wire.MRC, MultiWriter: true}, 2, 64, time.Millisecond)
			head := admissionWrite(keys[0], "x", []byte("held value"), 5)
			if got := push(t, srv, redeliver(t, head)); got != 1 {
				t.Fatal("head not accepted")
			}
			altered := redeliver(t, head)[0]
			c.change(altered)
			frame := append(redeliver(t,
				admissionWrite(keys[1], "a", []byte("mate a"), 1)),
				altered)
			frame = append(frame, redeliver(t, admissionWrite(keys[1], "b", []byte("mate b"), 1))...)

			before := m.VerifyCacheHits() + m.VerifyCacheMisses()
			if got := push(t, srv, frame); got != 2 {
				t.Fatalf("applied %d, want the 2 frame-mates only", got)
			}
			want := int64(2)
			if c.sigChecked {
				want = 3
			}
			if got := m.VerifyCacheHits() + m.VerifyCacheMisses() - before; got != want {
				t.Fatalf("%d signature lookups, want %d", got, want)
			}
			if got := srv.Head("g", "x"); !got.Equal(head) {
				t.Fatalf("held head changed to %+v", got)
			}
			for _, item := range []string{"a", "b"} {
				if srv.Head("g", item) == nil {
					t.Fatalf("frame-mate %s not integrated", item)
				}
			}
		})
	}
}

// TestGossipIngestPerItemVerifyWithoutBatching: with admission batching
// disabled (VerifyBatch < 0) the ingest verifies per item, still skipping
// held writes and rejecting a forgery alone.
func TestGossipIngestPerItemVerifyWithoutBatching(t *testing.T) {
	srv, keys, m := admissionFixture(t, Policy{Consistency: wire.MRC, MultiWriter: true}, 1, -1, 0)
	good := admissionWrite(keys[0], "good", []byte("g"), 1)
	forged := admissionWrite(keys[0], "forged", []byte("f"), 1)
	forged.Sig[1] ^= 1
	if got := push(t, srv, redeliver(t, good, forged)); got != 1 {
		t.Fatalf("applied %d, want only the good write", got)
	}
	if got := push(t, srv, redeliver(t, good)); got != 1 {
		t.Fatalf("duplicate applied %d, want 1", got)
	}
	if b, v := m.VerifyBatches(), m.Verifications(); b != 0 || v != 2 {
		t.Fatalf("batches %d verifications %d, want 0 and 2", b, v)
	}
}

// updateLogServer returns a server whose dissemination log keeps max
// entries, and a function that makes its i-th single-writer write (all
// to one item unless spread, so item maps stop growing).
func updateLogServer(t testing.TB, max int, spread bool) (*Server, func(i int) *wire.SignedWrite) {
	t.Helper()
	ring := cryptoutil.NewKeyring() // no verify cache: its LRU would allocate per write
	key := cryptoutil.DeterministicKeyPair("writer", "s")
	ring.MustRegister(key.ID, key.Public)
	srv := New(Config{ID: "s00", Ring: ring, MaxUpdateLog: max})
	srv.RegisterGroup("g", Policy{Consistency: wire.MRC})
	return srv, func(i int) *wire.SignedWrite {
		item := "x"
		if spread {
			item = fmt.Sprintf("item-%03d", i)
		}
		w := &wire.SignedWrite{Group: "g", Item: item, Stamp: timestamp.Stamp{Time: uint64(i)}, Value: []byte("value")}
		w.Sign(key, nil)
		return w
	}
}

// TestGossipIngestUpdateLogWindow: past MaxUpdateLog the retained window
// still serves exactly the last MaxUpdateLog updates with their sequence
// numbers, a peer behind it still gets a state transfer, and paged pulls
// walk the window unchanged.
func TestGossipIngestUpdateLogWindow(t *testing.T) {
	const max, total = 8, 29
	srv, write := updateLogServer(t, max, true)
	for i := 1; i <= total; i++ {
		if srv.ApplyDisseminated(write(i)) != 1 {
			t.Fatalf("write %d not applied", i)
		}
	}
	items := func(ws []*wire.SignedWrite) []string {
		var out []string
		for _, w := range ws {
			out = append(out, w.Item)
		}
		return out
	}
	ws, seq := srv.UpdatesSince(total - max)
	if seq != total || len(ws) != max {
		t.Fatalf("in-window pull: %d writes at seq %d, want %d at %d", len(ws), seq, max, total)
	}
	for i, w := range ws {
		if want := fmt.Sprintf("item-%03d", total-max+1+i); w.Item != want {
			t.Fatalf("window entry %d is %s, want %s (window %v)", i, w.Item, want, items(ws))
		}
	}
	if ws, seq := srv.UpdatesSince(total - max - 1); seq != total || len(ws) != total {
		t.Fatalf("behind the window: %d writes at seq %d, want a state transfer of all %d heads", len(ws), seq, total)
	}
	resp, err := srv.ServeRequest(context.Background(), "peer", wire.GossipPullReq{From: "peer", After: total - 5, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	page := resp.(wire.GossipPullResp)
	if got := items(page.Writes); len(got) != 3 || got[0] != fmt.Sprintf("item-%03d", total-4) || page.Seq != total-2 || !page.More {
		t.Fatalf("paged pull: %v seq %d more %v, want 3 writes from item-%03d, seq %d, more", got, page.Seq, page.More, total-4, total-2)
	}
}

// TestGossipIngestUpdateLogAllocs: an accepted write costs the same
// number of allocations whether or not the dissemination log is full,
// and its allocated bytes do not grow with MaxUpdateLog (trimming the
// window used to copy all of it on every write).
func TestGossipIngestUpdateLogAllocs(t *testing.T) {
	const runs = 200
	measure := func(max int) (allocs, bytes float64) {
		srv, write := updateLogServer(t, max, false)
		n := 0
		for ; n < 2*max && n < 2048; n++ { // fill the log when it is small enough to
			srv.ApplyDisseminated(write(n + 1))
		}
		ws := make([]*wire.SignedWrite, 2*runs+2)
		for i := range ws {
			ws[i] = write(n + 1 + i)
		}
		next := 0
		apply := func() {
			if srv.ApplyDisseminated(ws[next]) != 1 {
				t.Fatal("write not applied")
			}
			next++
		}
		allocs = testing.AllocsPerRun(runs, apply)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			apply()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	openAllocs, openBytes := measure(1 << 20) // never fills
	for _, max := range []int{16, 1024} {
		allocs, bytes := measure(max)
		if allocs > openAllocs {
			t.Errorf("MaxUpdateLog=%d (full): %.0f allocs per accepted write, %.0f with room", max, allocs, openAllocs)
		}
		if bytes > openBytes+512 {
			t.Errorf("MaxUpdateLog=%d (full): %.0f bytes per accepted write, %.0f with room", max, bytes, openBytes)
		}
	}
}

// BenchmarkGossipPushIngest measures one push frame of 16 writes through
// the server: "held" redelivers writes the replica already has (most
// push traffic), "new" delivers writes it has not seen.
func BenchmarkGossipPushIngest(b *testing.B) {
	const frame = 16
	mkFrame := func(keys []cryptoutil.KeyPair, round int) []*wire.SignedWrite {
		ws := make([]*wire.SignedWrite, frame)
		for i := range ws {
			st := timestamp.Stamp{Time: uint64(round + 1)}
			ws[i] = &wire.SignedWrite{Group: "g", Item: fmt.Sprintf("item-%d", i), Stamp: st, Value: make([]byte, 128)}
			ws[i].Sign(keys[0], nil)
		}
		return redeliver(b, ws...)
	}
	b.Run("held", func(b *testing.B) {
		srv, keys, _ := admissionFixture(b, Policy{Consistency: wire.MRC}, 1, 0, 0)
		ws := mkFrame(keys, 0)
		push(b, srv, ws)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			push(b, srv, ws)
		}
	})
	b.Run("new", func(b *testing.B) {
		srv, keys, _ := admissionFixture(b, Policy{Consistency: wire.MRC}, 1, 0, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ws := mkFrame(keys, i)
			b.StartTimer()
			push(b, srv, ws)
		}
	})
}

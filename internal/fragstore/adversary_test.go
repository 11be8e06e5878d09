package fragstore

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"securestore/internal/cryptoutil"
	"securestore/internal/fragment"
	"securestore/internal/metrics"
	"securestore/internal/timestamp"
	"securestore/internal/wire"
)

// storeAs builds a store session for an arbitrary principal with its own
// metrics counters, so adversarial tests can assert on the detection
// counters a read increments.
func (r *rig) storeAs(t *testing.T, id string, b, k int, m *metrics.Counters) *Store {
	t.Helper()
	key := cryptoutil.DeterministicKeyPair(id, "s")
	_ = r.ring.Register(key.ID, key.Public)
	s, err := New(Config{
		ID: key.ID, Key: key, Ring: r.ring, Servers: r.names,
		B: b, K: k, Group: "g",
		Caller:      r.bus.Caller(key.ID, m),
		Metrics:     m,
		CallTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sharesOf disperses value and returns the n share payloads.
func sharesOf(t *testing.T, value []byte, k, n int) [][]byte {
	t.Helper()
	frags, err := fragment.Split(value, k, n)
	if err != nil {
		t.Fatal(err)
	}
	shares := make([][]byte, n)
	for i, f := range frags {
		shares[i] = f.Data
	}
	return shares
}

// dispersalWrites builds the n per-server SignedWrites of one dispersal at
// logical time `at`, exactly as Store.WriteAbove does — one signature, the
// cross-checksum over the given shares — but without any honesty
// constraint on the shares: tests pass share vectors no single Split
// produced to model an equivocating writer.
func dispersalWrites(t *testing.T, key cryptoutil.KeyPair, item string, at uint64, shares [][]byte, k int) []*wire.SignedWrite {
	t.Helper()
	n := len(shares)
	cross := make([][32]byte, n)
	for i, sh := range shares {
		cross[i] = cryptoutil.Digest(sh)
	}
	writes := make([]*wire.SignedWrite, n)
	var first *wire.SignedWrite
	for i, sh := range shares {
		env := &wire.FragmentEnvelope{Index: i, K: k, N: n, Cross: cross, Share: sh}
		raw, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		w := &wire.SignedWrite{
			Group: "g", Item: item,
			Stamp: timestamp.Stamp{Time: at, Writer: key.ID, Digest: env.CrossDigest()},
			Value: raw,
		}
		if first == nil {
			w.Sign(key, &metrics.Counters{})
			first = w
		} else {
			w.Writer = first.Writer
			w.Sig = first.Sig
		}
		writes[i] = w
	}
	return writes
}

// plant delivers write w to server i through the verifying integration
// path and asserts it was accepted.
func (r *rig) plant(t *testing.T, i int, w *wire.SignedWrite) {
	t.Helper()
	if r.servers[i].ApplyDisseminated(w) != 1 {
		t.Fatalf("server %s rejected planted write for %q", r.names[i], w.Item)
	}
}

// TestEquivocatingCrossChecksumRejected is the attack the re-dispersal
// check exists for: a writer signs ONE cross-checksum vector that no
// single dispersal produced — shares 0,1 come from value A, shares 2,3
// from value B. Every fragment self-verifies (digest(share) == cross[i]),
// so every server accepts its fragment; a reader reconstructing from
// {0,1} would get A while one reconstructing from {2,3} would get B. The
// read must refuse the version instead of returning either value.
func TestEquivocatingCrossChecksumRejected(t *testing.T) {
	r := newRig(t, 4)
	m := &metrics.Counters{}
	s := r.storeAs(t, "owner", 1, 2, m)

	a := sharesOf(t, []byte("value-A: what half the readers would see"), 2, 4)
	b := sharesOf(t, []byte("value-B: what the other half would see.."), 2, 4)
	mixed := [][]byte{a[0], a[1], b[2], b[3]}
	key := cryptoutil.DeterministicKeyPair("owner", "s")
	for i, w := range dispersalWrites(t, key, "doc", 7, mixed, 2) {
		r.plant(t, i, w)
	}

	if _, _, err := s.Read(context.Background(), "doc"); !errors.Is(err, ErrEquivocation) {
		t.Fatalf("read of poisoned dispersal: err = %v, want ErrEquivocation", err)
	}
	if m.Custom(MetricEquivocation) == 0 {
		t.Fatal("equivocation not counted")
	}
}

// TestEquivocatingDoubleDispersalRejected covers the other equivocation
// shape: two complete, individually honest dispersals signed under the
// same (time, writer). Any reader quorum (n-b of n) sees fragments of
// both, so every honest reader detects the digest collision — and must
// refuse both versions rather than let map order decide which one wins.
func TestEquivocatingDoubleDispersalRejected(t *testing.T) {
	r := newRig(t, 4)
	m := &metrics.Counters{}
	s := r.storeAs(t, "owner", 1, 2, m)
	key := cryptoutil.DeterministicKeyPair("owner", "s")

	a := dispersalWrites(t, key, "doc", 7, sharesOf(t, []byte("dispersal A"), 2, 4), 2)
	b := dispersalWrites(t, key, "doc", 7, sharesOf(t, []byte("dispersal B"), 2, 4), 2)
	for i := 0; i < 2; i++ {
		r.plant(t, i, a[i])
	}
	for i := 2; i < 4; i++ {
		r.plant(t, i, b[i])
	}

	if _, _, err := s.Read(context.Background(), "doc"); !errors.Is(err, ErrEquivocation) {
		t.Fatalf("read of double dispersal: err = %v, want ErrEquivocation", err)
	}
	if m.Custom(MetricEquivocation) == 0 {
		t.Fatal("equivocation not counted")
	}
}

// TestEquivocationFallsBackToOlderVersion: when the poisoned version is
// only partially planted and an older honest version still holds k
// fragments, the read skips the poisoned (time, writer) and returns the
// honest version — every correct reader falls back to the same one.
func TestEquivocationFallsBackToOlderVersion(t *testing.T) {
	// n=5, b=0: reads gather every reply, so the read deterministically
	// sees both colliding digests (detection) and all three honest
	// fragments (fallback).
	r := newRig(t, 5)
	m := &metrics.Counters{}
	s := r.storeAs(t, "owner", 0, 2, m)
	key := cryptoutil.DeterministicKeyPair("owner", "s")

	honest := []byte("the last honest version")
	if _, err := s.Write(context.Background(), "doc", honest); err != nil {
		t.Fatal(err)
	}
	// The equivocating pair lands on two servers only (one fragment each):
	// neither reaches k, but both reveal the collision.
	a := dispersalWrites(t, key, "doc", 9, sharesOf(t, []byte("late A"), 2, 5), 2)
	b := dispersalWrites(t, key, "doc", 9, sharesOf(t, []byte("late B"), 2, 5), 2)
	r.plant(t, 0, a[0])
	r.plant(t, 1, b[1])

	got, _, err := s.Read(context.Background(), "doc")
	if err != nil {
		t.Fatalf("read with partial equivocation: %v", err)
	}
	if !bytes.Equal(got, honest) {
		t.Fatalf("read = %q, want the honest version", got)
	}
	if m.Custom(MetricEquivocation) == 0 {
		t.Fatal("equivocation not counted")
	}
}

// TestDuplicateIndexDoesNotDoubleCount: replayed copies of one fragment
// (here: index 0 stored on two servers) must count once toward the
// k-distinct threshold, and the read still reconstructs from the distinct
// indices that remain.
func TestDuplicateIndexDoesNotDoubleCount(t *testing.T) {
	r := newRig(t, 4)
	s := r.storeAs(t, "owner", 1, 2, &metrics.Counters{})
	key := cryptoutil.DeterministicKeyPair("owner", "s")

	value := []byte("reconstructible despite the replay")
	writes := dispersalWrites(t, key, "doc", 7, sharesOf(t, value, 2, 4), 2)
	r.plant(t, 0, writes[0])
	r.plant(t, 1, writes[0]) // replayed duplicate of index 0
	r.plant(t, 2, writes[2])
	r.plant(t, 3, writes[3])

	got, _, err := s.Read(context.Background(), "doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, value) {
		t.Fatalf("read = %q", got)
	}
}

// TestForgedIndexRejected: a share relabeled with another fragment's index
// fails self-verification (digest(share) != cross[index]) at every
// verifier — the server refuses to integrate it.
func TestForgedIndexRejected(t *testing.T) {
	r := newRig(t, 4)
	_ = r.storeAs(t, "owner", 1, 2, &metrics.Counters{})
	key := cryptoutil.DeterministicKeyPair("owner", "s")

	shares := sharesOf(t, []byte("honest dispersal"), 2, 4)
	writes := dispersalWrites(t, key, "doc", 7, shares, 2)

	// Relabel share 0 as index 1 under the honest cross-checksum and the
	// shared signature.
	forged := &wire.FragmentEnvelope{Index: 1, K: 2, N: 4,
		Cross: func() [][32]byte {
			cross := make([][32]byte, 4)
			for i, sh := range shares {
				cross[i] = cryptoutil.Digest(sh)
			}
			return cross
		}(), Share: shares[0]}
	raw, err := forged.Encode()
	if err != nil {
		t.Fatal(err)
	}
	w := &wire.SignedWrite{Group: "g", Item: "doc", Stamp: writes[0].Stamp, Value: raw,
		Writer: writes[0].Writer, Sig: writes[0].Sig}
	if w.Verify(r.ring, nil) == nil {
		t.Fatal("forged-index fragment passed verification")
	}
	if r.servers[1].ApplyDisseminated(w) != 0 {
		t.Fatal("server integrated a forged-index fragment")
	}
}

// TestMixedKRepliesCounted: fragments dispersed under a different
// reconstruction threshold k do not mix into this store's buckets — they
// are dropped and counted, and the read fails cleanly rather than
// feeding IDA rows from the wrong matrix geometry.
func TestMixedKRepliesCounted(t *testing.T) {
	r := newRig(t, 5)
	writer := r.storeAs(t, "owner", 1, 3, &metrics.Counters{})
	if _, err := writer.Write(context.Background(), "doc", []byte("k=3 dispersal")); err != nil {
		t.Fatal(err)
	}

	m := &metrics.Counters{}
	reader := r.storeAs(t, "owner", 1, 2, m)
	if _, _, err := reader.Read(context.Background(), "doc"); !errors.Is(err, ErrNotEnoughFragments) {
		t.Fatalf("err = %v, want ErrNotEnoughFragments", err)
	}
	if m.Custom(MetricKMismatch) == 0 {
		t.Fatal("k mismatch not counted")
	}
}

// TestStampCollisionDistinctWriters is the stamp-collision regression: two
// writers whose clocks assign the same logical time must land in separate
// buckets (the stamp carries the writer), so a read returns one writer's
// value intact — deterministically the higher writer name — and never an
// interleaving of both dispersals.
func TestStampCollisionDistinctWriters(t *testing.T) {
	// n=5, b=1: reads gather 4 replies, so bob's three fragments always
	// put >= k=2 of them in the read quorum regardless of which reply is
	// missed.
	r := newRig(t, 5)
	s := r.storeAs(t, "alice", 1, 2, &metrics.Counters{})
	aliceKey := cryptoutil.DeterministicKeyPair("alice", "s")
	bobKey := cryptoutil.DeterministicKeyPair("bob", "s")
	_ = r.ring.Register(bobKey.ID, bobKey.Public)

	aliceVal := []byte("alice's view of the document")
	bobVal := []byte("bob's view, exactly as written")
	aw := dispersalWrites(t, aliceKey, "doc", 7, sharesOf(t, aliceVal, 2, 5), 2)
	bw := dispersalWrites(t, bobKey, "doc", 7, sharesOf(t, bobVal, 2, 5), 2)
	// Interleave the two colliding dispersals across the replicas.
	r.plant(t, 0, aw[0])
	r.plant(t, 1, aw[1])
	r.plant(t, 2, bw[2])
	r.plant(t, 3, bw[3])
	r.plant(t, 4, bw[4])

	got, stamp, err := s.Read(context.Background(), "doc")
	if err != nil {
		t.Fatal(err)
	}
	// (7, "bob") > (7, "alice"): bob's bucket is the newest version.
	if stamp.Writer != bobKey.ID {
		t.Fatalf("stamp.Writer = %q, want bob's", stamp.Writer)
	}
	if !bytes.Equal(got, bobVal) {
		t.Fatalf("read = %q, want bob's value intact", got)
	}
}

// TestTornReadDuringOverwrite: a read racing an overwrite must return
// either the old or the new value whole. Deterministically: while the
// overwrite has reached fewer than k servers the old version wins; once k
// hold the new version it wins; and under a live concurrent overwrite
// every read returns one of the two values, never a blend.
func TestTornReadDuringOverwrite(t *testing.T) {
	// n=5, b=1: reads gather 4 replies. One planted v2 fragment can never
	// reach k=2 in a read quorum; three always put >= 2 there — both
	// phases are deterministic regardless of which reply is missed.
	r := newRig(t, 5)
	s := r.storeAs(t, "owner", 1, 2, &metrics.Counters{})
	key := cryptoutil.DeterministicKeyPair("owner", "s")
	ctx := context.Background()

	v1 := []byte("version one, replicated everywhere")
	v2 := []byte("version two, arriving server by server")
	if _, err := s.Write(ctx, "doc", v1); err != nil {
		t.Fatal(err)
	}
	overwrite := dispersalWrites(t, key, "doc", 9, sharesOf(t, v2, 2, 5), 2)

	r.plant(t, 0, overwrite[0]) // 1 < k fragments of v2
	if got, _, err := s.Read(ctx, "doc"); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("mid-overwrite read = %q, %v; want v1", got, err)
	}
	r.plant(t, 1, overwrite[1])
	r.plant(t, 2, overwrite[2]) // >= k fragments of v2 in every quorum
	if got, _, err := s.Read(ctx, "doc"); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("post-quorum read = %q, %v; want v2", got, err)
	}

	// Live race: concurrent overwrites vs reads; every read sees a whole
	// version. Run under -race this also exercises the store for data races.
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := s.Write(ctx, "doc", v1); err != nil {
				errCh <- err
				return
			}
			if _, err := s.Write(ctx, "doc", v2); err != nil {
				errCh <- err
				return
			}
		}
	}()
	reader := r.storeAs(t, "owner", 1, 2, &metrics.Counters{})
	for i := 0; i < 16; i++ {
		got, _, err := reader.Read(ctx, "doc")
		if errors.Is(err, ErrNotEnoughFragments) {
			// A read overlapping several in-flight overwrites can catch
			// every version below its k-fragment quorum; that is a retry,
			// never a wrong value.
			continue
		}
		if err != nil {
			t.Fatalf("racing read: %v", err)
		}
		if !bytes.Equal(got, v1) && !bytes.Equal(got, v2) {
			t.Fatalf("racing read returned a torn value: %q", got)
		}
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("racing write: %v", err)
	default:
	}
}

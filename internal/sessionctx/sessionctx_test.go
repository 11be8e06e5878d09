package sessionctx

import (
	"bytes"
	"testing"
	"testing/quick"

	"securestore/internal/cryptoutil"
	"securestore/internal/timestamp"
)

func st(time uint64) timestamp.Stamp { return timestamp.Stamp{Time: time} }

func TestUpdateKeepsMax(t *testing.T) {
	v := NewVector()
	if !v.Update("x", st(5)) {
		t.Fatal("first update reported no change")
	}
	if v.Update("x", st(3)) {
		t.Fatal("older update reported a change")
	}
	if v.Get("x") != st(5) {
		t.Fatalf("x = %v, want v5", v.Get("x"))
	}
	if !v.Update("x", st(9)) {
		t.Fatal("newer update reported no change")
	}
	if v.Get("x") != st(9) {
		t.Fatalf("x = %v, want v9", v.Get("x"))
	}
}

func TestMergePointwiseMax(t *testing.T) {
	a := Vector{"x": st(1), "y": st(9)}
	b := Vector{"x": st(5), "z": st(2)}
	a.Merge(b)
	want := Vector{"x": st(5), "y": st(9), "z": st(2)}
	if !a.Equal(want) {
		t.Fatalf("merge = %v, want %v", a, want)
	}
}

func TestMergeIdempotentCommutativeAssociative(t *testing.T) {
	// Property: merge is a join (least upper bound) on vectors.
	gen := func(xs []uint8, ys []uint8) (Vector, Vector) {
		a, b := NewVector(), NewVector()
		items := []string{"p", "q", "r", "s"}
		for i, x := range xs {
			if i >= len(items) {
				break
			}
			a[items[i]] = st(uint64(x))
		}
		for i, y := range ys {
			if i >= len(items) {
				break
			}
			b[items[i]] = st(uint64(y))
		}
		return a, b
	}
	prop := func(xs, ys []uint8) bool {
		a, b := gen(xs, ys)

		// Commutative.
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			return false
		}
		// Idempotent.
		again := ab.Clone()
		again.Merge(ab)
		if !again.Equal(ab) {
			return false
		}
		// Upper bound.
		return ab.Dominates(a) && ab.Dominates(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDominates(t *testing.T) {
	a := Vector{"x": st(5), "y": st(5)}
	b := Vector{"x": st(3)}
	if !a.Dominates(b) {
		t.Fatal("a should dominate b")
	}
	if b.Dominates(a) {
		t.Fatal("b should not dominate a")
	}
	if !a.Dominates(NewVector()) {
		t.Fatal("everything dominates the empty vector")
	}
	c := Vector{"z": st(1)}
	if a.Dominates(c) {
		t.Fatal("a lacks z, cannot dominate c")
	}
}

// TestEqualNamesItems: vectors of one size whose zero stamps sit under
// different items are not equal — the item names are part of what a
// signature covers.
func TestEqualNamesItems(t *testing.T) {
	if (Vector{"a": st(0)}).Equal(Vector{"b": st(0)}) {
		t.Fatal("vectors over different items compare equal")
	}
	if !(Vector{"a": st(2), "b": st(0)}).Equal(Vector{"b": st(0), "a": st(2)}) {
		t.Fatal("identical vectors compare unequal")
	}
}

func TestCloneIsolation(t *testing.T) {
	a := Vector{"x": st(1)}
	b := a.Clone()
	b.Update("x", st(9))
	if a.Get("x") != st(1) {
		t.Fatal("clone shares storage with original")
	}
}

func TestItemsSortedDeterministic(t *testing.T) {
	v := Vector{"zeta": st(1), "alpha": st(2), "mid": st(3)}
	items := v.Items()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("items = %v, want %v", items, want)
		}
	}
}

func TestSigningBytesDeterministic(t *testing.T) {
	mk := func() *Signed {
		return &Signed{
			Owner: "alice",
			Group: "g",
			Seq:   3,
			Vector: Vector{
				"b": st(2),
				"a": st(1),
				"c": st(3),
			},
		}
	}
	if !bytes.Equal(mk().SigningBytes(), mk().SigningBytes()) {
		t.Fatal("signing bytes differ across identical contexts")
	}
}

func TestSignVerify(t *testing.T) {
	key := cryptoutil.DeterministicKeyPair("alice", "s")
	ring := cryptoutil.NewKeyring()
	ring.MustRegister("alice", key.Public)

	s := &Signed{Owner: "alice", Group: "g", Seq: 1, Vector: Vector{"x": st(1)}}
	s.Sign(key, nil)
	if err := s.Verify(ring, nil); err != nil {
		t.Fatalf("verify: %v", err)
	}

	// Any field change invalidates the signature.
	tampered := s.Clone()
	tampered.Seq = 2
	if err := tampered.Verify(ring, nil); err == nil {
		t.Fatal("tampered seq verified")
	}
	tampered2 := s.Clone()
	tampered2.Vector.Update("x", st(99))
	if err := tampered2.Verify(ring, nil); err == nil {
		t.Fatal("tampered vector verified")
	}
}

func TestVerifyRejectsForgedOwner(t *testing.T) {
	alice := cryptoutil.DeterministicKeyPair("alice", "s")
	mallory := cryptoutil.DeterministicKeyPair("mallory", "s")
	ring := cryptoutil.NewKeyring()
	ring.MustRegister("alice", alice.Public)
	ring.MustRegister("mallory", mallory.Public)

	// Mallory signs a context claiming to be alice's.
	forged := &Signed{Owner: "alice", Group: "g", Seq: 9, Vector: NewVector()}
	forged.Sig = mallory.Sign(forged.SigningBytes(), nil)
	if err := forged.Verify(ring, nil); err == nil {
		t.Fatal("forged owner verified")
	}
}

func TestNewer(t *testing.T) {
	a := &Signed{Seq: 1}
	b := &Signed{Seq: 2}
	if !b.Newer(a) || a.Newer(b) {
		t.Fatal("Newer ordering wrong")
	}
	if !a.Newer(nil) {
		t.Fatal("anything is newer than nil")
	}
	if a.Newer(a) {
		t.Fatal("a context is not newer than itself")
	}
}

func TestSignedCloneDeep(t *testing.T) {
	s := &Signed{Owner: "a", Group: "g", Seq: 1, Vector: Vector{"x": st(1)}, Sig: []byte{1, 2}}
	c := s.Clone()
	c.Vector.Update("x", st(9))
	c.Sig[0] = 0xff
	if s.Vector.Get("x") != st(1) || s.Sig[0] != 1 {
		t.Fatal("clone shares storage")
	}
	var nilSigned *Signed
	if nilSigned.Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
}

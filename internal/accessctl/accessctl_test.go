package accessctl

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"securestore/internal/cryptoutil"
)

func newAuthority(t *testing.T) (*Authority, *cryptoutil.Keyring) {
	t.Helper()
	key := cryptoutil.DeterministicKeyPair("authority", "s")
	ring := cryptoutil.NewKeyring()
	ring.MustRegister(key.ID, key.Public)
	return NewAuthority(key), ring
}

func TestIssueVerify(t *testing.T) {
	auth, ring := newAuthority(t)
	tok := auth.Issue("alice", "g", ReadWrite, nil)
	if err := tok.Verify(ring, "alice", "g", ReadWrite, nil); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := tok.Verify(ring, "alice", "g", ReadOnly, nil); err != nil {
		t.Fatalf("read with rw token: %v", err)
	}
}

func TestRightsEnforcement(t *testing.T) {
	auth, ring := newAuthority(t)

	ro := auth.Issue("alice", "g", ReadOnly, nil)
	if err := ro.Verify(ring, "alice", "g", WriteOnly, nil); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("write with ro token = %v, want ErrUnauthorized", err)
	}
	wo := auth.Issue("alice", "g", WriteOnly, nil)
	if err := wo.Verify(ring, "alice", "g", ReadOnly, nil); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("read with wo token = %v, want ErrUnauthorized", err)
	}
}

func TestTokenBinding(t *testing.T) {
	auth, ring := newAuthority(t)
	tok := auth.Issue("alice", "g", ReadWrite, nil)

	if err := tok.Verify(ring, "bob", "g", ReadOnly, nil); !errors.Is(err, ErrTokenClient) {
		t.Fatalf("stolen token = %v, want ErrTokenClient", err)
	}
	if err := tok.Verify(ring, "alice", "other", ReadOnly, nil); !errors.Is(err, ErrTokenGroup) {
		t.Fatalf("cross-group token = %v, want ErrTokenGroup", err)
	}
}

func TestForgedTokenRejected(t *testing.T) {
	_, ring := newAuthority(t)
	mallory := cryptoutil.DeterministicKeyPair("mallory", "s")
	ring.MustRegister(mallory.ID, mallory.Public)

	forged := &Token{Issuer: "authority", Client: "mallory", Group: "g", Rights: ReadWrite, Serial: 1}
	forged.Sig = mallory.Sign(forged.SigningBytes(), nil)
	if err := forged.Verify(ring, "mallory", "g", ReadWrite, nil); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("forged token = %v, want ErrUnauthorized", err)
	}
}

func TestTamperedTokenRejected(t *testing.T) {
	auth, ring := newAuthority(t)
	tok := auth.Issue("alice", "g", ReadOnly, nil)
	tok.Rights = ReadWrite // escalate after signing
	if err := tok.Verify(ring, "alice", "g", WriteOnly, nil); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("tampered token = %v, want ErrUnauthorized", err)
	}
}

func TestNilToken(t *testing.T) {
	_, ring := newAuthority(t)
	var tok *Token
	if err := tok.Verify(ring, "alice", "g", ReadOnly, nil); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("nil token = %v, want ErrUnauthorized", err)
	}
}

func TestSerialsIncrease(t *testing.T) {
	auth, _ := newAuthority(t)
	a := auth.Issue("alice", "g", ReadOnly, nil)
	b := auth.Issue("alice", "g", ReadOnly, nil)
	if b.Serial <= a.Serial {
		t.Fatalf("serials not increasing: %d then %d", a.Serial, b.Serial)
	}
}

func TestRightsHelpers(t *testing.T) {
	if !ReadOnly.CanRead() || ReadOnly.CanWrite() {
		t.Fatal("ReadOnly rights wrong")
	}
	if WriteOnly.CanRead() || !WriteOnly.CanWrite() {
		t.Fatal("WriteOnly rights wrong")
	}
	if !ReadWrite.CanRead() || !ReadWrite.CanWrite() {
		t.Fatal("ReadWrite rights wrong")
	}
	for _, r := range []Rights{ReadOnly, WriteOnly, ReadWrite, Rights(99)} {
		if r.String() == "" {
			t.Fatal("empty rights string")
		}
	}
}

// jsonSigningBytes is the encoding Token.SigningBytes must reproduce: the
// json.Marshal rendering of the token with its signature cleared.
func jsonSigningBytes(t testing.TB, tok Token) []byte {
	t.Helper()
	tok.Sig = nil
	raw, err := json.Marshal(&tok)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTokenSigningBytesMatchesJSON pins the hand-built signing encoding
// to json.Marshal byte for byte, over the strings JSON escapes: HTML
// characters, quotes and backslashes, every control character, non-ASCII
// text, the JSONP line separators, and invalid UTF-8.
func TestTokenSigningBytesMatchesJSON(t *testing.T) {
	var controls []byte
	for c := byte(0); c < 0x20; c++ {
		controls = append(controls, c)
	}
	strs := []string{
		"", "alice", "g", "<script>&amp;</script>", `quote " and \\ backslash`,
		string(controls), "\x7f del", "héllo, 世界 🙂", "sep\u2028para\u2029end",
		"bad \xff\xfe utf8 \xc3", "truncated \xe2\x82", "\ufffd literal",
	}
	for i, s := range strs {
		tok := Token{
			Issuer: s, Client: strs[(i+1)%len(strs)], Group: strs[(i+5)%len(strs)],
			Rights: Rights(i - 3), Serial: uint64(i) << 60, Sig: []byte{1, 2, 3},
		}
		if got, want := tok.SigningBytes(), jsonSigningBytes(t, tok); !bytes.Equal(got, want) {
			t.Fatalf("string %d: signing bytes\n got %q\nwant %q", i, got, want)
		}
	}
}

// FuzzTokenSigningBytes checks the hand-built encoding against
// json.Marshal on arbitrary field values.
func FuzzTokenSigningBytes(f *testing.F) {
	f.Add("authority", "alice", "g", 3, uint64(1))
	f.Add("<&>", "\"\\\n\x00", "\xff\u2028", -1, uint64(1<<63))
	f.Fuzz(func(t *testing.T, issuer, client, group string, rights int, serial uint64) {
		tok := Token{Issuer: issuer, Client: client, Group: group, Rights: Rights(rights), Serial: serial}
		if got, want := tok.SigningBytes(), jsonSigningBytes(t, tok); !bytes.Equal(got, want) {
			t.Fatalf("signing bytes\n got %q\nwant %q", got, want)
		}
	})
}

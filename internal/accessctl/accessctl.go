// Package accessctl implements the authorization service the paper assumes
// (Section 4): "a non-faulty server does not accept a write or a read
// request from an unauthorized client. This can be effected by using
// authorization tokens issued to clients by some secure authorization
// service."
//
// An Authority issues signed capability Tokens granting a client read
// and/or write rights over one related group of data items. Servers hold
// the authority's public key (via the shared keyring) and verify tokens on
// every request.
package accessctl

import (
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"

	"securestore/internal/cryptoutil"
	"securestore/internal/metrics"
)

// Rights is the set of operations a token grants.
type Rights int

// Right values. ReadWrite grants both.
const (
	ReadOnly Rights = iota + 1
	WriteOnly
	ReadWrite
)

// String renders the rights for logs.
func (r Rights) String() string {
	switch r {
	case ReadOnly:
		return "read"
	case WriteOnly:
		return "write"
	case ReadWrite:
		return "read+write"
	default:
		return fmt.Sprintf("rights(%d)", int(r))
	}
}

// CanRead reports whether the rights include reading.
func (r Rights) CanRead() bool { return r == ReadOnly || r == ReadWrite }

// CanWrite reports whether the rights include writing.
func (r Rights) CanWrite() bool { return r == WriteOnly || r == ReadWrite }

// Errors returned by token verification.
var (
	ErrUnauthorized = errors.New("accessctl: unauthorized")
	ErrTokenClient  = errors.New("accessctl: token issued to a different client")
	ErrTokenGroup   = errors.New("accessctl: token covers a different group")
)

// Token is a signed capability: authority Issuer grants Client the Rights
// over data-item group Group. Tokens are presented with every read and
// write request and verified by non-faulty servers.
type Token struct {
	Issuer string `json:"issuer"`
	Client string `json:"client"`
	Group  string `json:"group"`
	Rights Rights `json:"rights"`
	Serial uint64 `json:"serial"`
	Sig    []byte `json:"sig"`
}

// SigningBytes returns the canonical byte string the issuer signs: the
// token's encoding/json rendering with a null signature. It runs on every
// authorized request, so it is built by hand rather than through
// json.Marshal; the output is byte-identical (TestTokenSigningBytesMatchesJSON),
// so tokens issued under either encoder verify under both.
func (t *Token) SigningBytes() []byte {
	b := make([]byte, 0, 96+len(t.Issuer)+len(t.Client)+len(t.Group))
	b = append(b, `{"issuer":`...)
	b = appendJSONString(b, t.Issuer)
	b = append(b, `,"client":`...)
	b = appendJSONString(b, t.Client)
	b = append(b, `,"group":`...)
	b = appendJSONString(b, t.Group)
	b = append(b, `,"rights":`...)
	b = strconv.AppendInt(b, int64(t.Rights), 10)
	b = append(b, `,"serial":`...)
	b = strconv.AppendUint(b, t.Serial, 10)
	return append(b, `,"sig":null}`...)
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it: HTML-significant <, > and & escaped, control characters as
// \b \f \n \r \t or \u00XX, invalid UTF-8 replaced by \ufffd, and
// U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Verify checks the token's signature and that it actually grants client
// the needed rights over group.
func (t *Token) Verify(ring *cryptoutil.Keyring, client, group string, need Rights, m *metrics.Counters) error {
	if t == nil {
		return fmt.Errorf("%w: no token presented", ErrUnauthorized)
	}
	if t.Client != client {
		return fmt.Errorf("%w: token for %q, request from %q", ErrTokenClient, t.Client, client)
	}
	if t.Group != group {
		return fmt.Errorf("%w: token for %q, request touches %q", ErrTokenGroup, t.Group, group)
	}
	if need.CanRead() && !t.Rights.CanRead() {
		return fmt.Errorf("%w: token grants %s, read required", ErrUnauthorized, t.Rights)
	}
	if need.CanWrite() && !t.Rights.CanWrite() {
		return fmt.Errorf("%w: token grants %s, write required", ErrUnauthorized, t.Rights)
	}
	if err := ring.Verify(t.Issuer, t.SigningBytes(), t.Sig, m); err != nil {
		return fmt.Errorf("%w: %v", ErrUnauthorized, err)
	}
	return nil
}

// Authority issues capability tokens. Its public key must be registered in
// every server's keyring under its ID.
type Authority struct {
	key    cryptoutil.KeyPair
	serial uint64
}

// NewAuthority creates an authority around the given key pair.
func NewAuthority(key cryptoutil.KeyPair) *Authority {
	return &Authority{key: key}
}

// ID returns the authority's principal identifier.
func (a *Authority) ID() string { return a.key.ID }

// PublicKey returns the authority's public key for keyring registration.
func (a *Authority) PublicKey() []byte { return a.key.Public }

// Issue mints a signed token granting client the rights over group.
func (a *Authority) Issue(client, group string, rights Rights, m *metrics.Counters) *Token {
	a.serial++
	t := &Token{
		Issuer: a.key.ID,
		Client: client,
		Group:  group,
		Rights: rights,
		Serial: a.serial,
	}
	t.Sig = a.key.Sign(t.SigningBytes(), m)
	return t
}

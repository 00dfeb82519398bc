package wire

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
)

// Rekey payloads are multicast to the whole group, so confidentiality comes
// from the key wrapping — but authenticity must come from somewhere: a
// member must not accept a rekey (or be tricked into discarding keys) on an
// attacker's say-so. The server therefore signs every rekey payload with an
// Ed25519 key whose public half rides in the registration welcome.

// ErrBadSignature reports a rekey payload whose signature does not verify.
var ErrBadSignature = errors.New("wire: rekey signature verification failed")

// SignRekey wraps an encoded rekey payload with an Ed25519 signature:
// sig(64) || payload. The signature covers the full payload (epoch, count,
// items), so neither items nor the epoch can be spliced.
func SignRekey(priv ed25519.PrivateKey, payload []byte) []byte {
	sig := ed25519.Sign(priv, payload)
	out := make([]byte, 0, len(sig)+len(payload))
	out = append(out, sig...)
	return append(out, payload...)
}

// OpenSignedRekey verifies and strips the signature, returning the inner
// payload.
func OpenSignedRekey(pub ed25519.PublicKey, blob []byte) ([]byte, error) {
	if len(blob) < ed25519.SignatureSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrMalformed, len(blob))
	}
	sig, payload := blob[:ed25519.SignatureSize], blob[ed25519.SignatureSize:]
	if len(pub) != ed25519.PublicKeySize || !ed25519.Verify(pub, payload, sig) {
		return nil, ErrBadSignature
	}
	return payload, nil
}

// SignedWelcome extends the registration package with the server's signing
// public key.
type SignedWelcome struct {
	Welcome
	ServerKey ed25519.PublicKey
}

// Encode serializes the welcome plus public key.
func (w SignedWelcome) Encode() []byte {
	base := w.Welcome.Encode()
	out := make([]byte, 0, len(base)+4+len(w.ServerKey))
	out = append(out, base...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(w.ServerKey)))
	return append(out, w.ServerKey...)
}

// DecodeSignedWelcome parses a SignedWelcome payload.
func DecodeSignedWelcome(b []byte) (SignedWelcome, error) {
	baseLen := 20 + 32 // see Welcome.Encode
	if len(b) < baseLen+4 {
		return SignedWelcome{}, fmt.Errorf("%w: signed welcome %d bytes", ErrMalformed, len(b))
	}
	base, err := DecodeWelcome(b[:baseLen])
	if err != nil {
		return SignedWelcome{}, err
	}
	keyLen := int(binary.BigEndian.Uint32(b[baseLen : baseLen+4]))
	rest := b[baseLen+4:]
	if keyLen != len(rest) || (keyLen != 0 && keyLen != ed25519.PublicKeySize) {
		return SignedWelcome{}, fmt.Errorf("%w: server key length %d", ErrMalformed, keyLen)
	}
	sw := SignedWelcome{Welcome: base}
	if keyLen > 0 {
		sw.ServerKey = ed25519.PublicKey(append([]byte(nil), rest...))
	}
	return sw, nil
}

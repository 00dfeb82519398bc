package server

import (
	"io"
	"net"
	"testing"

	"groupkey/internal/wire"
)

// newRelay starts a man-in-the-middle relay to target. Client→server
// traffic passes verbatim; every server→client frame goes through the
// hook newHook returns for its connection (called once per accepted
// connection) before it is forwarded, so a hook may record or edit frames.
// It returns the relay's listen address.
func newRelay(t *testing.T, target string, newHook func() func(typ wire.MsgType, payload []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("relay listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })

	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			upstream, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			// client → server: verbatim.
			go func() {
				defer upstream.Close()
				defer client.Close()
				io.Copy(upstream, client) //nolint:errcheck // relay teardown is the signal
			}()
			// server → client: per frame, through the hook.
			hook := newHook()
			go func() {
				defer upstream.Close()
				defer client.Close()
				for {
					typ, payload, err := wire.ReadFrame(upstream)
					if err != nil {
						return
					}
					hook(typ, payload)
					if err := wire.WriteFrame(client, typ, payload); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// newTamperingProxy starts a relay to target that flips one signature byte
// of every server→client rekey frame after the first pass on each
// connection, leaving all other traffic — the join's welcome included —
// intact. pass 0 forges the admitting rekey; pass 1 lets it through and
// forges every later one. It returns the proxy's listen address.
func newTamperingProxy(t *testing.T, target string, pass int) string {
	t.Helper()
	return newRelay(t, target, func() func(wire.MsgType, []byte) {
		rekeys := 0
		return func(typ wire.MsgType, payload []byte) {
			if typ != wire.MsgRekeySparse || len(payload) == 0 {
				return
			}
			if rekeys >= pass {
				payload[0] ^= 0x01 // break the Ed25519 signature
			}
			rekeys++
		}
	})
}

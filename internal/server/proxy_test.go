package server

import (
	"io"
	"net"
	"testing"

	"groupkey/internal/wire"
)

// newTamperingProxy starts a man-in-the-middle relay to target that flips
// one signature byte of every server→client rekey frame (full and sparse)
// after the first pass on each connection, leaving all other traffic —
// the join's welcome included — intact. pass 0 forges the admitting
// rekey; pass 1 lets it through and forges every later one. It returns
// the proxy's listen address.
func newTamperingProxy(t *testing.T, target string, pass int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
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
			// server → client: per-frame, corrupting every rekey after
			// the first pass.
			go func() {
				defer upstream.Close()
				defer client.Close()
				rekeys := 0
				for {
					typ, payload, err := wire.ReadFrame(upstream)
					if err != nil {
						return
					}
					if (typ == wire.MsgRekey || typ == wire.MsgRekeySparse) && len(payload) > 0 {
						if rekeys >= pass {
							payload[0] ^= 0x01 // break the Ed25519 signature
						}
						rekeys++
					}
					if err := wire.WriteFrame(client, typ, payload); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

package server

import (
	"bytes"
	"crypto/ed25519"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/member"
	"groupkey/internal/wire"
)

// Client-side session resumption: a member that saved its state (State)
// reconnects after a server or client restart with ResumeDial, proving it
// still holds its individual key instead of re-joining — no group rekey,
// no new member ID. The saved blob contains every key the member holds;
// callers own encryption at rest (cmd/memberclient stores it 0600).

const (
	clientStateMagic = "GKC1"
	// clientStateVersion 2 inserts the 4-byte hosted group after the
	// version word; version-1 blobs are still read and map to group 0.
	clientStateVersion = 2
)

// ClientState is the decoded resumable session.
type ClientState struct {
	// Group is the hosted group the session belongs to (0 = default).
	Group wire.GroupID
	// Indiv is the member's current individual (leaf) key — the resume
	// proof is sealed under it.
	Indiv keycrypt.Key
	// ServerKey is the pinned Ed25519 server signing key.
	ServerKey ed25519.PublicKey
	// Epoch is the newest rekey epoch the client processed.
	Epoch uint64
	// Member is the restored key store.
	Member *member.Member
}

// State serializes everything needed to resume this session later.
func (c *Client) State() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mem == nil {
		return nil, ErrNotWelcomed
	}
	var buf bytes.Buffer
	buf.WriteString(clientStateMagic)
	var b4 [4]byte
	var b8 [8]byte
	binary.BigEndian.PutUint32(b4[:], clientStateVersion)
	buf.Write(b4[:])
	binary.BigEndian.PutUint32(b4[:], uint32(c.group))
	buf.Write(b4[:])
	binary.BigEndian.PutUint64(b8[:], c.epoch)
	buf.Write(b8[:])
	binary.BigEndian.PutUint64(b8[:], uint64(c.indiv.ID))
	buf.Write(b8[:])
	binary.BigEndian.PutUint32(b4[:], uint32(c.indiv.Version))
	buf.Write(b4[:])
	buf.Write(c.indiv.Bytes())
	buf.Write(c.serverKey)
	buf.Write(c.mem.Snapshot())
	return buf.Bytes(), nil
}

// DecodeClientState parses a State blob. Both layout versions are read:
// version 1 predates multi-group hosting and restores into group 0.
func DecodeClientState(blob []byte) (*ClientState, error) {
	const header = 4 + 4 + 8 + 8 + 4 + keycrypt.KeySize + ed25519.PublicKeySize
	if len(blob) < header || string(blob[:4]) != clientStateMagic {
		return nil, fmt.Errorf("server: not a client state blob")
	}
	st := &ClientState{}
	off := 8
	switch v := binary.BigEndian.Uint32(blob[4:8]); v {
	case 1:
	case 2:
		if len(blob) < header+4 {
			return nil, fmt.Errorf("server: truncated client state blob")
		}
		st.Group = wire.GroupID(binary.BigEndian.Uint32(blob[8:12]))
		off = 12
	default:
		return nil, fmt.Errorf("server: client state version %d not supported", v)
	}
	st.Epoch = binary.BigEndian.Uint64(blob[off : off+8])
	off += 8
	indiv, err := keycrypt.NewKey(
		keycrypt.KeyID(binary.BigEndian.Uint64(blob[off:off+8])),
		keycrypt.Version(binary.BigEndian.Uint32(blob[off+8:off+12])),
		blob[off+12:off+12+keycrypt.KeySize],
	)
	if err != nil {
		return nil, err
	}
	st.Indiv = indiv
	off += 12 + keycrypt.KeySize
	st.ServerKey = append(ed25519.PublicKey(nil), blob[off:off+ed25519.PublicKeySize]...)
	st.Member, err = member.Restore(blob[off+ed25519.PublicKeySize:])
	if err != nil {
		return nil, err
	}
	return st, nil
}

// ResumeDial reconnects a previously saved session over plain TCP.
// Cluster redirects are followed transparently, so a member resumes
// against the group's current owner even after a failover moved it.
func ResumeDial(addr string, state []byte, timeout time.Duration) (*Client, error) {
	return ResumeDialVia(addr, state, timeout, nil)
}

// ResumeDialVia is ResumeDial with an address rewrite applied to every
// cluster redirect target before re-dialing, mirroring DialGroupVia for
// members that reach the cluster through per-region proxies. A nil rewrite
// is the identity.
func ResumeDialVia(addr string, state []byte, timeout time.Duration, rewrite func(string) string) (*Client, error) {
	st, err := DecodeClientState(state)
	if err != nil {
		return nil, err
	}
	return followRedirectsVia(addr, rewrite, func(addr string) (*Client, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, fmt.Errorf("server: dialing %s: %w", addr, err)
		}
		return resumeOnConn(conn, st, timeout)
	})
}

// ResumeDialTLS reconnects a previously saved session over TLS, pinning
// the server certificate pool as DialTLS does. Cluster redirects are
// followed transparently.
func ResumeDialTLS(addr string, state []byte, timeout time.Duration, pool *x509.CertPool) (*Client, error) {
	st, err := DecodeClientState(state)
	if err != nil {
		return nil, err
	}
	return followRedirects(addr, func(addr string) (*Client, error) {
		dialer := &net.Dialer{Timeout: timeout}
		conn, err := tls.DialWithDialer(dialer, "tcp", addr, &tls.Config{
			RootCAs:    pool,
			MinVersion: tls.VersionTLS13,
		})
		if err != nil {
			return nil, fmt.Errorf("server: TLS dial %s: %w", addr, err)
		}
		return resumeOnConn(conn, st, timeout)
	})
}

// resumeOnConn performs the resume handshake over an established
// connection.
func resumeOnConn(conn net.Conn, st *ClientState, timeout time.Duration) (*Client, error) {
	c := &Client{
		conn:      conn,
		group:     st.Group,
		welcomed:  make(chan struct{}),
		epochCh:   make(chan struct{}),
		done:      make(chan struct{}),
		data:      make(chan []byte, 64),
		mem:       st.Member,
		id:        st.Member.ID(),
		serverKey: st.ServerKey,
		epoch:     st.Epoch,
		joinEpoch: st.Epoch,
		indiv:     st.Indiv,
	}
	var idBytes [8]byte
	binary.BigEndian.PutUint64(idBytes[:], uint64(c.id))
	proof, err := keycrypt.Seal(st.Indiv, idBytes[:], nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	req := wire.ResumeRequest{Member: c.id, Proof: proof, Caps: wire.CapSparse}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := c.writeFrame(wire.MsgResume, req.Encode()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: sending resume: %w", err)
	}
	go c.readLoop()

	select {
	case <-c.welcomed:
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("server: connection closed before resume ack: %w", c.err())
	case <-time.After(timeout):
		conn.Close()
		return nil, ErrJoinTimeout
	}
}

// trackIndividualLocked keeps c.indiv pointing at the member's current
// leaf key across rekeys, so a State saved later still authenticates.
// Two movements matter: a version refresh of the same key slot, and a
// hand-off to a brand-new leaf — TwoPartition S→L migration and
// scheme-to-scheme migration both deliver it the same way: the new
// individual key arrives as a single-receiver JoinerWrap sealed under the
// old one. That shape is unambiguous except in the member's own join
// payload (whose path chain also starts at its leaf), so handoffPossible
// must be false while processing the join rekey or any re-delivery of an
// already-seen epoch. Callers hold c.mu.
func (c *Client) trackIndividualLocked(items []keytree.Item, handoffPossible bool) {
	if c.mem == nil {
		return
	}
	if k, ok := c.mem.Key(c.indiv.ID); ok {
		c.indiv = k
	}
	if !handoffPossible {
		return
	}
	// Frames carry no receiver lists, and none is needed: nobody else
	// holds this member's leaf, so a JoinerWrap sealed under it is
	// addressed to us by construction.
	for _, it := range items {
		if it.Kind == keytree.JoinerWrap &&
			it.Wrapped.WrapperID == c.indiv.ID && it.Wrapped.PayloadID != c.indiv.ID {
			if k, ok := c.mem.Key(it.Wrapped.PayloadID); ok {
				c.indiv = k
			}
			return
		}
	}
}

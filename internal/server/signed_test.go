package server

import (
	"crypto/ed25519"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// pipeClient starts a join on a net.Pipe whose other end the test drives
// by hand as a fake key server: frames are written with writeServerFrame,
// and everything the client sends is drained.
func pipeClient(t *testing.T) (*Client, net.Conn) {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	t.Cleanup(func() {
		srvEnd.Close()
		cliEnd.Close()
	})
	go io.Copy(io.Discard, srvEnd) //nolint:errcheck // ends with the pipe
	c, err := startJoin(cliEnd, 0, wire.JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	return c, srvEnd
}

// writeServerFrame writes one frame from the fake server's end.
func writeServerFrame(t *testing.T, srvEnd net.Conn, typ wire.MsgType, payload []byte) {
	t.Helper()
	srvEnd.SetWriteDeadline(time.Now().Add(testTimeout))
	if err := wire.WriteFrame(srvEnd, typ, payload); err != nil {
		t.Fatalf("writing %v: %v", typ, err)
	}
}

// sealEpoch seals a rekey as the server would, releasing it at cleanup.
func sealEpoch(t *testing.T, priv ed25519.PrivateKey, rk *core.Rekey) *epochBuffer {
	t.Helper()
	eb, err := newEpochBuffer(priv, rk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eb.release)
	return eb
}

// TestClientRejectsForgedFrames injects a rekey frame and a data frame
// signed by an attacker into a live client's connection, between two
// genuine rekeys: the client must drop and count both, never take the
// forged epoch, and still apply the next genuine rekey.
func TestClientRejectsForgedFrames(t *testing.T) {
	sc := newScheme(t, 20)
	pub, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(21))
	if err != nil {
		t.Fatal(err)
	}
	_, attacker, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(999))
	if err != nil {
		t.Fatal(err)
	}
	join := func(id keytree.MemberID) *core.Rekey {
		rk, err := sc.ProcessBatch(core.Batch{Joins: []core.Join{{ID: id, Meta: core.MemberMeta{LossRate: -1}}}})
		if err != nil {
			t.Fatal(err)
		}
		return rk
	}
	c, srvEnd := pipeClient(t)

	// Genuine admission of member 1 at epoch 1.
	rk := join(1)
	welcome := wire.SignedWelcome{Welcome: wire.Welcome{Member: 1, Key: rk.Welcome[1]}, ServerKey: pub}
	writeServerFrame(t, srvEnd, wire.MsgWelcome, welcome.Encode())
	eb := sealEpoch(t, priv, rk)
	idx := eb.indexesFor(1)
	writeServerFrame(t, srvEnd, wire.MsgRekeySparse, sparseFrame(eb, idx))
	if err := c.awaitAdmission(testTimeout); err != nil {
		t.Fatalf("genuine admission: %v", err)
	}

	// The attacker re-signs the genuine items' root as epoch 999, and
	// signs data sealed under the real group key.
	forged := wire.AppendSparseHead(nil, 999, eb.tree, eb.root,
		wire.SignSparse(attacker, 999, uint32(eb.nItems), eb.root), idx)
	for _, v := range idx {
		forged = append(forged, eb.item(int(v))...)
	}
	writeServerFrame(t, srvEnd, wire.MsgRekeySparse, forged)
	dek, err := sc.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := keycrypt.Seal(dek, []byte("forged"), nil)
	if err != nil {
		t.Fatal(err)
	}
	writeServerFrame(t, srvEnd, wire.MsgData, wire.SignRekey(attacker, sealed))

	// The next genuine rekey (member 2 joins, epoch 2) still applies.
	rk2 := join(2)
	eb2 := sealEpoch(t, priv, rk2)
	writeServerFrame(t, srvEnd, wire.MsgRekeySparse, sparseFrame(eb2, eb2.indexesFor(1)))
	if err := c.WaitEpoch(2, testTimeout); err != nil {
		t.Fatalf("genuine rekey after the forgeries: %v", err)
	}
	if got := c.Epoch(); got != 2 {
		t.Fatalf("client at epoch %d, want 2 (the forged epoch is 999)", got)
	}
	dek2, err := sc.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasKey(dek2) {
		t.Fatal("client lacks the group key of the genuine rekey")
	}
	if got := c.BadSignatures(); got != 2 {
		t.Fatalf("BadSignatures=%d, want 2 (one rekey, one data frame)", got)
	}
	select {
	case pt := <-c.Data():
		t.Fatalf("forged data delivered: %q", pt)
	default:
	}
}

// TestClientFailsOnUnhandledFrame: a frame type the client does not handle
// — here a full MsgRekey, which no server sends any more — fails the
// connection with an error naming the type, so admission returns at once
// instead of waiting out its timeout.
func TestClientFailsOnUnhandledFrame(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(23))
	if err != nil {
		t.Fatal(err)
	}
	c, srvEnd := pipeClient(t)
	welcome := wire.SignedWelcome{Welcome: wire.Welcome{Member: 1, Key: keycrypt.Random(1, 0)}, ServerKey: pub}
	writeServerFrame(t, srvEnd, wire.MsgWelcome, welcome.Encode())
	legacy, err := wire.EncodeRekey(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeServerFrame(t, srvEnd, wire.MsgRekey, wire.SignRekey(priv, legacy))

	start := time.Now()
	err = c.awaitAdmission(testTimeout)
	if err == nil || errors.Is(err, ErrJoinTimeout) ||
		!strings.Contains(err.Error(), "unexpected "+wire.MsgRekey.String()) {
		t.Fatalf("admission after a MsgRekey: got %v, want an error naming the frame type", err)
	}
	if waited := time.Since(start); waited >= testTimeout/2 {
		t.Fatalf("admission took %v to fail on an unhandled frame", waited)
	}
}

// TestDialRejectsForgedAdmission spins a man-in-the-middle proxy that
// flips one byte of every rekey frame, the admitting one included: the
// client must reject the forged admission, count it, apply no epoch, and
// Dial must fail with ErrForgedAdmission at once rather than wait out its
// timeout.
func TestDialRejectsForgedAdmission(t *testing.T) {
	scheme := newScheme(t, 22)
	srv := startServer(t, scheme)
	mitm := newTamperingProxy(t, srv.Addr().String(), 0)

	// Dial's own steps, so the rejected client stays observable.
	conn, err := net.Dial("tcp", mitm)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := startJoin(conn, 0, wire.JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	admit := make(chan error, 1)
	go func() { admit <- c.awaitAdmission(testTimeout) }()
	waitPendingJoins(t, srv, 1)
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	if err := <-admit; !errors.Is(err, ErrForgedAdmission) {
		t.Fatalf("admission through a forging proxy: got %v, want ErrForgedAdmission", err)
	}
	if c.Epoch() != 0 {
		t.Fatalf("client applied epoch %d from a forged admission", c.Epoch())
	}
	if c.BadSignatures() == 0 {
		t.Fatal("forged admitting rekey not counted")
	}

	// Dial itself returns the error, well before its timeout.
	start := time.Now()
	ch := make(chan error, 1)
	go func() {
		_, err := Dial(mitm, wire.JoinRequest{}, testTimeout)
		ch <- err
	}()
	waitPendingJoins(t, srv, 1)
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	if err := <-ch; !errors.Is(err, ErrForgedAdmission) {
		t.Fatalf("Dial through a forging proxy: got %v, want ErrForgedAdmission", err)
	}
	if waited := time.Since(start); waited >= testTimeout {
		t.Fatalf("Dial waited out its timeout (%v) on a forged admission", waited)
	}
}

// TestClientCountsTamperedFramesFromWire spins a man-in-the-middle proxy
// between client and server that flips one byte of every rekey frame after
// the admitting one: the client must reject every tampered frame and never
// advance its epoch past its admission.
func TestClientCountsTamperedFramesFromWire(t *testing.T) {
	scheme := newScheme(t, 21)
	srv := startServer(t, scheme)

	// MITM listener that relays to the real server, corrupting
	// server→client rekey traffic.
	mitm := newTamperingProxy(t, srv.Addr().String(), 1)

	type result struct {
		c   *Client
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := Dial(mitm, wire.JoinRequest{}, testTimeout)
		ch <- result{c, err}
	}()
	time.Sleep(100 * time.Millisecond)
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("Dial through proxy: %v", r.err)
	}
	defer r.c.Close()

	// The welcome and the admitting rekey passed through untouched, but
	// every later rekey is tampered: the epoch must stay at the admission
	// and the counter must grow.
	admitted := r.c.Epoch()
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for r.c.BadSignatures() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no tampered frame observed (epoch=%d)", r.c.Epoch())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if r.c.Epoch() != admitted {
		t.Fatalf("client advanced from epoch %d to %d on tampered frames", admitted, r.c.Epoch())
	}
}

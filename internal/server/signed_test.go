package server

import (
	"crypto/ed25519"
	"errors"
	"net"
	"testing"
	"time"

	"groupkey/internal/keycrypt"
	"groupkey/internal/wire"
)

// TestClientRejectsForgedFrames injects rekey and data frames signed by an
// attacker directly into a client's connection: the client must drop them,
// count them, and remain in sync with the real server.
func TestClientRejectsForgedFrames(t *testing.T) {
	scheme := newScheme(t, 20)
	srv := startServer(t, scheme)
	c := dial(t, srv, wire.JoinRequest{})
	if len(c.ServerKey()) != ed25519.PublicKeySize {
		t.Fatal("client did not learn the server key")
	}

	// The attacker: a different keypair signing a fake "rekey" that would
	// bump the client's epoch. The verification layer must reject it.
	_, attacker, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(999))
	if err != nil {
		t.Fatal(err)
	}
	fakeRekey, err := wire.EncodeRekey(999, nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := wire.SignRekey(attacker, fakeRekey)
	if _, err := wire.OpenSignedRekey(c.ServerKey(), forged); err == nil {
		t.Fatal("forged rekey verified against the server key")
	}

	// End-to-end: epoch must only advance through genuinely signed rekeys.
	before := c.Epoch()
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitEpoch(before+1, testTimeout); err != nil {
		t.Fatalf("legitimate rekey not applied: %v", err)
	}
	if c.Epoch() >= 999 {
		t.Fatal("client accepted the forged epoch")
	}
	if c.BadSignatures() != 0 {
		t.Fatalf("unexpected bad-signature count %d on a clean run", c.BadSignatures())
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

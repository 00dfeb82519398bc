package server

import (
	"bytes"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

func startDurableServer(t *testing.T, dir string) (*Server, *store.Store, *store.RecoveryResult) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Recover()
	if err != nil {
		st.Close()
		t.Fatalf("Recover: %v", err)
	}
	scheme := res.Scheme
	if scheme == nil {
		scheme, err = st.Create(store.SchemeConfig{Kind: store.SchemeTT, SPeriodK: 2})
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
	}
	srv := NewWithKey(scheme, nil, st.SigningKey())
	srv.Persist(st, 0) // snapshot only on Close
	srv.SetNextID(res.NextID)
	if err := srv.SetLastRekey(res.LastRekey); err != nil {
		st.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	srv.Serve(ln)
	return srv, st, res
}

// TestServerRestartResume is the whole point of the durable store, end to
// end over the wire: members join a store-backed server, the server shuts
// down and a new process recovers from the state directory, and the old
// members resume their session — same IDs, same keys — and decrypt the
// next rekey without ever re-joining.
func TestServerRestartResume(t *testing.T) {
	dir := t.TempDir()
	srv, st, _ := startDurableServer(t, dir)

	clients := make([]*Client, 0, 3)
	for i := 0; i < 3; i++ {
		clients = append(clients, dial(t, srv, wire.JoinRequest{LossRate: 0.01}))
	}
	// One member leaves before the restart; its eviction must persist.
	goneID := clients[2].ID()
	if err := clients[2].Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	for _, c := range clients[:2] {
		if err := c.WaitEpoch(4, testTimeout); err != nil {
			t.Fatalf("WaitEpoch before restart: %v", err)
		}
	}

	// Detach (not leave): save each survivor's state, then kill everything.
	states := make([][]byte, 2)
	ids := make([]keytree.MemberID, 2)
	for i, c := range clients[:2] {
		blob, err := c.State()
		if err != nil {
			t.Fatalf("State: %v", err)
		}
		states[i] = blob
		ids[i] = c.ID()
		c.Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store Close: %v", err)
	}

	// Second life: recover from the state directory.
	srv2, st2, res := startDurableServer(t, dir)
	defer func() {
		srv2.Close()
		st2.Close()
	}()
	if srv2.Size() != 2 {
		t.Fatalf("recovered group has %d members, want 2", srv2.Size())
	}
	if res.NextID <= goneID {
		t.Fatalf("recovered NextID %d could reuse evicted ID %d", res.NextID, goneID)
	}

	resumed := make([]*Client, 2)
	for i, blob := range states {
		c, err := ResumeDial(srv2.Addr().String(), blob, testTimeout)
		if err != nil {
			t.Fatalf("ResumeDial client %d: %v", i, err)
		}
		defer c.Close()
		if c.ID() != ids[i] {
			t.Fatalf("client %d resumed as member %d, want %d", i, c.ID(), ids[i])
		}
		if c.Epoch() != 4 {
			t.Fatalf("client %d resumed at epoch %d, want 4", i, c.Epoch())
		}
		resumed[i] = c
	}

	// A fresh joiner must get an ID the first life never issued.
	fresh := dial(t, srv2, wire.JoinRequest{LossRate: 0.1})
	if fresh.ID() < res.NextID {
		t.Fatalf("fresh joiner got ID %d, below recovered NextID %d", fresh.ID(), res.NextID)
	}

	// The join's rekey is epoch 5; resumed members follow it with the keys
	// they held before the restart.
	dek, err := srv2.scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range append(resumed, fresh) {
		if err := c.WaitEpoch(5, testTimeout); err != nil {
			t.Fatalf("client %d WaitEpoch after restart: %v", i, err)
		}
		if !c.HasKey(dek) {
			t.Fatalf("client %d lacks the post-restart group key", i)
		}
	}

	msg := []byte("act 2: same keys, new process")
	if err := srv2.Broadcast(msg); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for i, c := range append(resumed, fresh) {
		select {
		case got := <-c.Data():
			if !bytes.Equal(got, msg) {
				t.Fatalf("client %d got %q", i, got)
			}
		case <-time.After(testTimeout):
			t.Fatalf("client %d never received data after restart", i)
		}
	}

	// The evicted member's stale state must NOT resume.
	if srv2.scheme.Contains(goneID) {
		t.Fatalf("evicted member %d still present after recovery", goneID)
	}
}

// TestServerRestartEvictsDetachedOnTimeout: a member that detaches and
// never resumes is still evicted by the abrupt-disconnect path when its
// connection drops in the second life — resume is a grace window, not
// immortality. Here we just check that a resumed client that then leaves
// is gone from both the scheme and the next recovery.
func TestServerRestartResumeThenLeave(t *testing.T) {
	dir := t.TempDir()
	srv, st, _ := startDurableServer(t, dir)
	c := dial(t, srv, wire.JoinRequest{})
	id := c.ID()
	blob, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2, _ := startDurableServer(t, dir)
	rc, err := ResumeDial(srv2.Addr().String(), blob, testTimeout)
	if err != nil {
		t.Fatalf("ResumeDial: %v", err)
	}
	if err := rc.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := srv2.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	if srv2.scheme.Contains(id) {
		t.Fatal("member still present after resumed leave")
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third life: the leave survived the restart too.
	srv3, st3, _ := startDurableServer(t, dir)
	defer func() {
		srv3.Close()
		st3.Close()
	}()
	if srv3.scheme.Contains(id) {
		t.Fatal("evicted member resurrected by recovery")
	}
	if srv3.Size() != 0 {
		t.Fatalf("group size %d after full churn, want 0", srv3.Size())
	}
}

// crashPersister journals through the store but never snapshots, so
// closing a server that uses it models a crash: every operation since the
// last snapshot lives only in the WAL.
type crashPersister struct{ *store.Store }

func (crashPersister) SaveSnapshot(core.Scheme, keytree.MemberID) error { return nil }

// TestResumeAfterJournalOnlyRotation covers the journal-before-broadcast
// crash window: a rotation is journaled and applied while the only member
// is detached, and the server dies before it snapshots. The recovered
// server re-derives the rotation, and the member resuming against it
// receives that epoch as a sparse frame and holds the recovered group key
// without any further rekey.
func TestResumeAfterJournalOnlyRotation(t *testing.T) {
	dir := t.TempDir()

	// Life 1: a member joins, saves its state and detaches.
	srv, st, _ := startDurableServer(t, dir)
	c := dial(t, srv, wire.JoinRequest{})
	state, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: rotate with nobody connected, then crash.
	srv2, st2, _ := startDurableServer(t, dir)
	srv2.Persist(crashPersister{st2}, 0)
	rk, err := srv2.RotateNow()
	if err != nil {
		t.Fatalf("RotateNow: %v", err)
	}
	rotated, err := srv2.scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 3: recover, and resume through a relay that records what the
	// server sends.
	srv3, st3, res := startDurableServer(t, dir)
	defer func() {
		srv3.Close()
		st3.Close()
	}()
	if res.LastRekey == nil || res.LastRekey.Epoch != rk.Epoch {
		t.Fatalf("recovery did not replay the rotation (epoch %d)", rk.Epoch)
	}
	var mu sync.Mutex
	var sent []wire.MsgType
	relay := newRelay(t, srv3.Addr().String(), func() func(wire.MsgType, []byte) {
		return func(typ wire.MsgType, _ []byte) {
			mu.Lock()
			sent = append(sent, typ)
			mu.Unlock()
		}
	})
	rc, err := ResumeDial(relay, state, testTimeout)
	if err != nil {
		t.Fatalf("ResumeDial: %v", err)
	}
	defer rc.Close()
	if err := rc.WaitEpoch(rk.Epoch, testTimeout); err != nil {
		t.Fatalf("resumed member never reached the rotation: %v", err)
	}
	recovered, err := srv3.scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != rotated {
		t.Fatal("recovery derived a different group key than the lost instance")
	}
	if !rc.HasKey(recovered) {
		t.Fatal("resumed member lacks the recovered group key")
	}
	if got := srv3.Epoch(); got != rk.Epoch {
		t.Fatalf("server at epoch %d, want %d: no rekey may follow recovery", got, rk.Epoch)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []wire.MsgType{wire.MsgWelcome, wire.MsgRekeySparse}; !slices.Equal(sent, want) {
		t.Fatalf("server sent %v on resume, want %v", sent, want)
	}
}

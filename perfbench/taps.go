package main

import (
	"encoding/binary"
	"errors"
	"net"
	"sort"
	"sync"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

// The taps decorate the boundaries the key server already calls — its
// core.Scheme, its server.Persister and its net.Listener — so every layer
// is timed from outside the program. A group's scheme and persister taps
// share one groupTap.

// interval is one timed call.
type interval struct{ start, end time.Time }

func (iv interval) ms() float64 { return msBetween(iv.start, iv.end) }

// groupObs is what one group's taps saw during one rekey. The server
// writes it under its lock inside RekeyNow; the epoch loop reads it after
// RekeyNow (or RekeyAllNow) has returned.
type groupObs struct {
	journal   interval
	apply     interval
	snapshot  interval
	snapshots int
	rekey     *core.Rekey
	groupKey  keycrypt.Key
	joins     int
	leaves    int
}

// groupTap carries one group's offline churn into its batches: the epoch loop
// stages the next trace period, the persister tap merges it with the
// server's own batch (the probes' joins and leaves) before journaling,
// and the scheme tap applies exactly the journaled batch.
type groupTap struct {
	staged core.Batch
	merged core.Batch
	obs    groupObs
}

// stage sets the offline churn of the next batch and clears the previous
// observations.
func (t *groupTap) stage(b core.Batch) {
	t.staged = b
	t.obs = groupObs{}
}

// merge appends the server's batch to the staged offline churn. It runs
// under the server's lock; the staged batch has room for the probes'
// changes, so the cost is theirs, not the churn's. The server's leaves
// come from a map, so they are sorted to keep journaled batches identical
// across runs.
func (t *groupTap) merge(b core.Batch) core.Batch {
	n := len(t.staged.Leaves)
	merged := core.Batch{
		Joins:  append(t.staged.Joins, b.Joins...),
		Leaves: append(t.staged.Leaves, b.Leaves...),
	}
	tail := merged.Leaves[n:]
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	return merged
}

// tapScheme times ProcessBatch and records the rekey and the new group
// key. Every other method is the wrapped scheme's.
type tapScheme struct {
	core.Scheme
	tap *groupTap
}

// ProcessBatch applies the batch the persister tap journaled (the
// server's batch merged with the staged offline churn).
func (s *tapScheme) ProcessBatch(b core.Batch) (*core.Rekey, error) {
	merged := s.tap.merged
	start := time.Now()
	rk, err := s.Scheme.ProcessBatch(merged)
	s.tap.obs.apply = interval{start, time.Now()}
	if err != nil {
		return nil, err
	}
	gk, err := s.Scheme.GroupKey()
	if err != nil {
		return nil, err
	}
	s.tap.obs.rekey = rk
	s.tap.obs.groupKey = gk
	s.tap.obs.joins = len(merged.Joins)
	s.tap.obs.leaves = len(merged.Leaves)
	return rk, nil
}

// tapStore times the store's journal appends and snapshots.
type tapStore struct {
	st  *store.Store
	tap *groupTap
}

func (p *tapStore) JournalBatch(b core.Batch) error {
	p.tap.merged = p.tap.merge(b)
	start := time.Now()
	err := p.st.JournalBatch(p.tap.merged)
	p.tap.obs.journal = interval{start, time.Now()}
	return err
}

func (p *tapStore) JournalRotate() error { return p.st.JournalRotate() }

func (p *tapStore) SaveSnapshot(sc core.Scheme, nextID keytree.MemberID) error {
	start := time.Now()
	err := p.st.SaveSnapshot(sc, nextID)
	p.tap.obs.snapshot = interval{start, time.Now()}
	p.tap.obs.snapshots++
	return err
}

// tapListener hands every accepted connection to the epoch loop, wrapped
// in a tapConn, so the loop can tell which server-side socket belongs to
// which probe (the probes dial one at a time).
type tapListener struct {
	net.Listener
	accepted chan *tapConn
	stop     chan struct{}
	once     sync.Once
}

func newTapListener(ln net.Listener) *tapListener {
	return &tapListener{Listener: ln, accepted: make(chan *tapConn, 1), stop: make(chan struct{})}
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c}
	select {
	case l.accepted <- tc:
	case <-l.stop:
		c.Close()
		return nil, net.ErrClosed
	}
	return tc, nil
}

func (l *tapListener) Close() error {
	l.once.Do(func() { close(l.stop) })
	return l.Listener.Close()
}

// readWaiter is released once the server starts a Read with at least n
// bytes of the connection already consumed.
type readWaiter struct {
	n  int64
	ch chan struct{}
}

// tapConn is the server side of one probe's connection. Reads tell the
// epoch loop when the server has finished handling a client frame: the
// handler reads the next frame only after the previous one is processed.
// Writes are reassembled into whole frames, so each frame reaches the
// socket in one write (as the server's vectored write would) and its
// last byte is timestamped and counted.
type tapConn struct {
	net.Conn

	mu      sync.Mutex
	read    int64 // bytes consumed by the server
	atRead  int64 // read, when the newest Read call started
	waiters []readWaiter
	rekeyB  int64     // rekey frame bytes written
	lastKey time.Time // when the newest rekey frame was handed to the socket
	wmu     sync.Mutex
	wbuf    []byte
	failed  error
}

func (c *tapConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.atRead = c.read
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.n <= c.atRead {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += int64(n)
	c.mu.Unlock()
	return n, err
}

// consumed returns a channel closed once the server has handled the
// client's first n bytes.
func (c *tapConn) consumed(n int64) <-chan struct{} {
	ch := make(chan struct{})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.atRead >= n {
		close(ch)
	} else {
		c.waiters = append(c.waiters, readWaiter{n, ch})
	}
	return ch
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.failed != nil {
		return 0, c.failed
	}
	c.wbuf = append(c.wbuf, p...)
	for len(c.wbuf) >= 5 {
		n := 4 + int(binary.BigEndian.Uint32(c.wbuf))
		if len(c.wbuf) < n {
			break
		}
		// Noted before the write, so the note is in place by the time
		// the client can have read the frame.
		switch wire.MsgType(c.wbuf[4] &^ 0x80) {
		case wire.MsgRekey, wire.MsgRekeySparse, wire.MsgRekeyDigest:
			c.mu.Lock()
			c.rekeyB += int64(n)
			c.lastKey = time.Now()
			c.mu.Unlock()
		}
		if _, err := c.Conn.Write(c.wbuf[:n]); err != nil {
			c.failed = err
			return 0, err
		}
		c.wbuf = c.wbuf[:copy(c.wbuf, c.wbuf[n:])]
	}
	return len(p), nil
}

// rekeyWrites returns the rekey bytes written so far and when the newest
// rekey frame finished.
func (c *tapConn) rekeyWrites() (int64, time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rekeyB, c.lastKey
}

var errTimeout = errors.New("timed out")

// await waits for ch or fails after d.
func await(ch <-chan struct{}, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-t.C:
		return errTimeout
	}
}

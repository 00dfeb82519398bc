package server

import (
	"fmt"
	"net"
	"sync"
	"time"

	"groupkey/internal/fec"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// Client side of the datagram rekey plane. EnableDatagram dials the
// server's UDP socket and subscribes with a sealed hello; from then on
// each epoch's keys arrive as individually signed FEC shards, and the TCP
// connection carries only a digest (MsgRekeyDigest) naming the geometry.
// The client collects shards, reconstructs the blocks covering its item
// indexes, and applies through the same applyRekey path as TCP. Deficits
// are NACKed over UDP after nackDelay; after maxNacks unanswered rounds
// the client falls back to the authoritative TCP pull (MsgRekeyPull), so
// a dead UDP path degrades to exactly the sparse TCP behaviour.

const (
	// defaultNackDelay is how long after a digest (or a NACK) the client
	// waits for missing shards before the next repair round.
	defaultNackDelay = 150 * time.Millisecond
	// defaultMaxNacks bounds UDP repair rounds before the TCP pull.
	defaultMaxNacks = 3
)

// dgramPlane is one client's UDP subscription state. Lock order: d.mu may
// be taken with no other lock held, and c.mu may be taken under d.mu
// (never the reverse).
type dgramPlane struct {
	c         *Client
	conn      net.Conn
	nackDelay time.Duration
	maxNacks  int

	mu     sync.Mutex
	closed bool
	// epochs collects shard payloads per epoch until the digest arrives
	// and the needed blocks complete: epoch → block → shard → payload.
	epochs map[uint64]map[uint16]map[uint8][]byte
	digest *wire.RekeyDigest // the epoch currently being assembled
	nacks  int
	timer  *time.Timer
}

// EnableDatagram subscribes the client to the server's UDP rekey plane at
// addr. Call after Dial returns (the hello is sealed under the member's
// leaf key). nackDelay and maxNacks of 0 select defaults.
func (c *Client) EnableDatagram(addr string, nackDelay time.Duration, maxNacks int) error {
	c.mu.Lock()
	joined := c.joined
	indiv := c.indiv
	id := c.id
	c.mu.Unlock()
	if !joined {
		return ErrNotWelcomed
	}
	if nackDelay <= 0 {
		nackDelay = defaultNackDelay
	}
	if maxNacks <= 0 {
		maxNacks = defaultMaxNacks
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return fmt.Errorf("server: dialing udp %s: %w", addr, err)
	}
	sealed, err := keycrypt.Seal(indiv, []byte(wire.HelloBody), nil)
	if err != nil {
		conn.Close()
		return err
	}
	if _, err := conn.Write(wire.EncodeMemberDgram(wire.DgramHello, c.group, 0, id, sealed)); err != nil {
		conn.Close()
		return fmt.Errorf("server: udp hello: %w", err)
	}
	d := &dgramPlane{
		c:         c,
		conn:      conn,
		nackDelay: nackDelay,
		maxNacks:  maxNacks,
		epochs:    make(map[uint64]map[uint16]map[uint8][]byte),
	}
	c.mu.Lock()
	if c.dgram != nil {
		c.mu.Unlock()
		conn.Close()
		return fmt.Errorf("server: datagram plane already enabled")
	}
	c.dgram = d
	c.mu.Unlock()
	go d.readLoop()
	return nil
}

func (d *dgramPlane) close() {
	d.mu.Lock()
	d.closed = true
	if d.timer != nil {
		d.timer.Stop()
	}
	d.mu.Unlock()
	d.conn.Close()
}

// readLoop collects signed shard packets until the socket closes.
func (d *dgramPlane) readLoop() {
	buf := make([]byte, wire.MaxDgramSize)
	for {
		n, err := d.conn.Read(buf)
		if err != nil {
			return
		}
		pkt := append([]byte(nil), buf[:n]...)
		dg, err := wire.DecodeDgram(pkt)
		if err != nil || dg.Group != d.c.group {
			continue
		}
		if dg.Type != wire.DgramKeys && dg.Type != wire.DgramParity {
			continue
		}
		if !wire.VerifyDgram(d.c.ServerKey(), pkt) {
			d.c.mu.Lock()
			d.c.rejectFrameLocked()
			d.c.mu.Unlock()
			continue
		}
		if dg.Epoch <= d.c.Epoch() {
			continue // already applied this epoch
		}
		d.mu.Lock()
		blocks := d.epochs[dg.Epoch]
		if blocks == nil {
			blocks = make(map[uint16]map[uint8][]byte)
			d.epochs[dg.Epoch] = blocks
		}
		shards := blocks[dg.Block]
		if shards == nil {
			shards = make(map[uint8][]byte)
			blocks[dg.Block] = shards
		}
		shards[dg.Shard] = dg.Payload
		ready := d.digest != nil && d.digest.Epoch == dg.Epoch
		d.mu.Unlock()
		if ready {
			d.tryAssemble()
		}
	}
}

// handleDigest reacts to a MsgRekeyDigest from the TCP read loop: with a
// datagram plane it starts (or completes) assembly of that epoch; without
// one — the server believes we subscribed but we cannot receive — it
// falls straight back to the TCP pull.
func (c *Client) handleDigest(dg wire.RekeyDigest) {
	c.mu.Lock()
	d := c.dgram
	cur := c.epoch
	c.mu.Unlock()
	if dg.Epoch <= cur {
		return // stale or replayed announcement
	}
	if d == nil {
		c.pull(dg.Epoch)
		return
	}
	d.mu.Lock()
	d.digest = &dg
	d.nacks = 0
	d.armTimerLocked()
	d.mu.Unlock()
	d.tryAssemble()
}

// pull requests the epoch's authoritative slice over TCP.
func (c *Client) pull(epoch uint64) {
	c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_ = c.writeFrame(wire.MsgRekeyPull, wire.EncodeRekeyPull(epoch))
}

func (d *dgramPlane) armTimerLocked() {
	if d.timer != nil {
		d.timer.Stop()
	}
	if d.closed {
		return
	}
	d.timer = time.AfterFunc(d.nackDelay, d.repairRound)
}

// neededBlocksLocked returns the digest blocks that cover any of the
// member's item indexes — the only blocks the member must complete.
// Geometry: data shard j (global, sequential across blocks) carries items
// [j·kpd, (j+1)·kpd).
func (d *dgramPlane) neededBlocksLocked() []wire.DigestBlock {
	dg := d.digest
	kpd := (int(dg.ShardSize) - 2) / (4 + wire.RekeyItemSize)
	if kpd <= 0 {
		return nil
	}
	var need []wire.DigestBlock
	i, off := 0, 0
	for _, blk := range dg.Blocks {
		lo := uint32(off * kpd)
		hi := uint32((off + int(blk.K)) * kpd)
		for i < len(dg.Indexes) && dg.Indexes[i] < lo {
			i++
		}
		if i < len(dg.Indexes) && dg.Indexes[i] < hi {
			need = append(need, blk)
		}
		off += int(blk.K)
	}
	return need
}

// tryAssemble reconstructs the needed blocks once enough shards are in,
// and applies the member's items.
func (d *dgramPlane) tryAssemble() {
	d.mu.Lock()
	epoch, items, ok := d.assembleLocked()
	if ok {
		d.digest = nil
		if d.timer != nil {
			d.timer.Stop()
		}
		for e := range d.epochs {
			if e <= epoch {
				delete(d.epochs, e)
			}
		}
	}
	d.mu.Unlock()
	if ok {
		d.c.applyRekey(epoch, items)
	}
}

func (d *dgramPlane) assembleLocked() (uint64, []keytree.Item, bool) {
	dg := d.digest
	if dg == nil {
		return 0, nil, false
	}
	if len(dg.Indexes) == 0 {
		// Nothing addressed to us this epoch: the signed digest itself is
		// the heartbeat.
		return dg.Epoch, nil, true
	}
	need := d.neededBlocksLocked()
	blocks := d.epochs[dg.Epoch]
	for _, blk := range need {
		if len(blocks[blk.Block]) < int(blk.K) {
			return 0, nil, false
		}
	}
	// Every needed block is decodable: reconstruct and collect our items.
	byIdx := make(map[uint32][]byte)
	for _, blk := range need {
		k, total := int(blk.K), int(blk.Shards)
		slots := make([][]byte, total)
		for s, payload := range blocks[blk.Block] {
			if int(s) >= total {
				continue
			}
			padded := make([]byte, dg.ShardSize)
			copy(padded, payload)
			slots[s] = padded
		}
		if k < total {
			coder, err := fec.NewCoder(k, total-k)
			if err != nil {
				return 0, nil, false
			}
			if err := coder.Reconstruct(slots); err != nil {
				return 0, nil, false
			}
		}
		for s := 0; s < k; s++ {
			idx, items, err := wire.ParseShardEntries(slots[s])
			if err != nil {
				return 0, nil, false
			}
			for i, li := range idx {
				byIdx[li] = items[i]
			}
		}
	}
	out := make([]keytree.Item, 0, len(dg.Indexes))
	for _, li := range dg.Indexes {
		enc, ok := byIdx[li]
		if !ok {
			return 0, nil, false // geometry mismatch: let repair escalate
		}
		it, err := wire.DecodeRekeyItem(enc)
		if err != nil {
			return 0, nil, false
		}
		out = append(out, it)
	}
	return dg.Epoch, out, true
}

// repairRound fires after nackDelay with the epoch still incomplete: NACK
// the per-block deficits (with the observed loss estimate piggybacked),
// or — once maxNacks rounds went unanswered — pull over TCP.
func (d *dgramPlane) repairRound() {
	d.mu.Lock()
	dg := d.digest
	if dg == nil || d.closed {
		d.mu.Unlock()
		return
	}
	received, expected := 0, 0
	blocks := d.epochs[dg.Epoch]
	for _, blk := range dg.Blocks {
		received += len(blocks[blk.Block])
		expected += int(blk.Shards)
	}
	// Report deficits only for the blocks we still need; loss is observed
	// over the whole epoch's expected packet count.
	var report []wire.NackBlock
	for _, blk := range d.neededBlocksLocked() {
		have := len(blocks[blk.Block])
		if have >= int(blk.K) {
			continue
		}
		report = append(report, wire.NackBlock{Block: blk.Block, Have: uint8(have)})
	}
	if len(report) == 0 {
		d.mu.Unlock()
		d.tryAssemble()
		return
	}
	if d.nacks >= d.maxNacks {
		epoch := dg.Epoch
		d.digest = nil
		d.mu.Unlock()
		d.c.pull(epoch)
		return
	}
	d.nacks++
	loss := 0
	if expected > 0 && received < expected {
		loss = (expected - received) * 1000 / expected
	}
	body := wire.NackBody{Epoch: dg.Epoch, LossPermille: uint16(loss), Blocks: report}
	d.armTimerLocked()
	d.mu.Unlock()

	d.c.mu.Lock()
	indiv := d.c.indiv
	id := d.c.id
	d.c.mu.Unlock()
	sealed, err := keycrypt.Seal(indiv, body.Encode(), nil)
	if err != nil {
		return
	}
	_, _ = d.conn.Write(wire.EncodeMemberDgram(wire.DgramNack, d.c.group, dg.Epoch, id, sealed))
}

package transport

import (
	"fmt"
	"math"

	"groupkey/internal/fec"
	"groupkey/internal/keytree"
	"groupkey/internal/netsim"
)

// ProactiveFEC is the Yang et al. rekey transport (Section 2.2): encrypted
// keys are packed into packets once (no replication), packets are grouped
// into Reed-Solomon blocks, and each block is multicast with proactive
// parity so that any K received shards reconstruct the block. After each
// round receivers NACK their per-block shard deficit and the server
// multicasts fresh parity sized by the worst deficit.
//
// Parity shards are produced by a real RS coder (internal/fec) over the
// marshaled key bytes, so the code path a production deployment would use
// is exercised, not just counted.
type ProactiveFEC struct {
	Config Config
	// BlockSize is K, the source packets per FEC block.
	BlockSize int
	// Rho is the proactivity factor: round one sends ceil(Rho·K) shards
	// per block.
	Rho float64
	// Order is the packing order (breadth-first by default).
	Order PackOrder
	// Metrics, when non-nil, receives per-delivery costs and parity
	// overhead.
	Metrics *Metrics
}

// NewProactiveFEC returns the protocol with blocks of 8 source packets and
// 10% proactive parity.
func NewProactiveFEC(cfg Config) *ProactiveFEC {
	return &ProactiveFEC{Config: cfg, BlockSize: 8, Rho: 1.1, Order: BreadthFirst}
}

// Name implements Protocol.
func (pf *ProactiveFEC) Name() string { return "proactive-fec" }

// block is the transmission state of one FEC block.
type block struct {
	source []packet // source shards: the actual key packets
	k      int      // len(source)
	coder  *fec.Coder
	shards [][]byte // marshaled source + generated parity bytes
	sent   int      // shards transmitted so far (source + parity)
}

// fecReceiver tracks one receiver's progress on one block.
type fecReceiver struct {
	neededSrc map[int]bool // source shard indexes carrying items it needs
	gotShards map[int]bool // distinct shard indexes received (source + parity)
	done      bool
}

func (fr *fecReceiver) complete(k int) bool {
	if fr.done {
		return true
	}
	if len(fr.gotShards) >= k {
		fr.done = true // can reconstruct the whole block
		return true
	}
	for s := range fr.neededSrc {
		if !fr.gotShards[s] {
			return false
		}
	}
	fr.done = true
	return true
}

// deficit is how many more distinct shards the receiver needs to guarantee
// reconstruction.
func (fr *fecReceiver) deficit(k int) int {
	if fr.done {
		return 0
	}
	d := k - len(fr.gotShards)
	if d < 1 {
		d = 1 // incomplete yet k shards cannot happen, but stay safe
	}
	return d
}

// ProactiveParity sizes the proactive parity for one FEC block of k source
// shards from the receivers' loss rates, adapting WKA's replication weight
// to coding: E[M] copies of every packet under replication becomes
// k·(E[M] − 1) parity shards under RS coding (any k of the k+h shards
// reconstruct, so parity substitutes one-for-one for replicas). The result
// is clamped to [min, max]; max also respects the RS field limit the
// caller derives from fec.MaxShards.
func ProactiveParity(k int, losses []float64, min, max int) int {
	if k < 1 || max < min {
		return min
	}
	h := min
	if em := ExpectedTransmissions(losses); em > 1 {
		if need := int(math.Ceil(float64(k) * (em - 1))); need > h {
			h = need
		}
	}
	if h > max {
		h = max
	}
	return h
}

// Deliver implements Protocol.
func (pf *ProactiveFEC) Deliver(items []keytree.Item, need func(keytree.MemberID) []uint32, net *netsim.Network) (Result, error) {
	if err := pf.Config.Validate(); err != nil {
		return Result{}, err
	}
	if pf.BlockSize < 1 || pf.BlockSize > 128 {
		return Result{}, fmt.Errorf("%w: blockSize=%d", ErrBadConfig, pf.BlockSize)
	}
	if pf.Rho < 1 {
		return Result{}, fmt.Errorf("%w: rho=%v", ErrBadConfig, pf.Rho)
	}
	order := pf.Order
	if order == 0 {
		order = BreadthFirst
	}

	rs := newReceiverState(need, net)
	if rs.satisfied() {
		return Result{Delivered: true}, nil
	}

	// Pack once, block up, and RS-encode real shard bytes.
	ordered := orderItems(items, rs.pendingItems(), order)
	source := packPlain(ordered, pf.Config.KeysPerPacket)
	shardBytes := pf.Config.KeysPerPacket * len(items[0].Wrapped.Marshal())

	var blocks []*block
	for start := 0; start < len(source); start += pf.BlockSize {
		end := start + pf.BlockSize
		if end > len(source) {
			end = len(source)
		}
		b := &block{source: source[start:end], k: end - start}
		parityCap := 255 - b.k
		if parityCap > 4*b.k+8 {
			parityCap = 4*b.k + 8 // plenty for any realistic loss rate
		}
		coder, err := fec.NewCoder(b.k, parityCap)
		if err != nil {
			return Result{}, fmt.Errorf("transport: building FEC coder: %w", err)
		}
		b.coder = coder
		data := make([][]byte, b.k)
		for i, p := range b.source {
			buf := make([]byte, 0, shardBytes)
			for _, idx := range p.items {
				buf = append(buf, items[idx].Wrapped.Marshal()...)
			}
			for len(buf) < shardBytes {
				buf = append(buf, 0)
			}
			data[i] = buf
		}
		parity, err := coder.Encode(data)
		if err != nil {
			return Result{}, fmt.Errorf("transport: encoding parity: %w", err)
		}
		b.shards = append(data, parity...)
		blocks = append(blocks, b)
	}

	// Index per-receiver block interest.
	recvState := make(map[keytree.MemberID][]*fecReceiver)
	for r, needSet := range rs.need {
		states := make([]*fecReceiver, len(blocks))
		for bi, b := range blocks {
			fr := &fecReceiver{neededSrc: make(map[int]bool), gotShards: make(map[int]bool)}
			for si, p := range b.source {
				for _, idx := range p.items {
					if needSet[idx] {
						fr.neededSrc[si] = true
						break
					}
				}
			}
			fr.done = len(fr.neededSrc) == 0
			states[bi] = fr
		}
		recvState[r] = states
	}

	var res Result
	defer func() { pf.Metrics.observeResult(res) }()
	keysPerShard := pf.Config.KeysPerPacket

	// transmitShard multicasts one shard of one block to the receivers
	// still working on that block.
	transmitShard := func(bi, shardIdx int) {
		b := blocks[bi]
		var interested []keytree.MemberID
		for r, states := range recvState {
			if !states[bi].done {
				interested = append(interested, r)
			}
		}
		got := net.Multicast(interested)
		res.PacketsSent++
		if shardIdx >= b.k {
			pf.Metrics.addParityKeys(keysPerShard)
		}
		for r := range got {
			fr := recvState[r][bi]
			fr.gotShards[shardIdx] = true
			if fr.complete(b.k) {
				// Mark every item in the block as received: the receiver
				// either has its needed source packets or reconstructs.
				for _, p := range b.source {
					for _, idx := range p.items {
						rs.got(r, idx)
					}
				}
			}
		}
	}

	for round := 0; round < pf.Config.MaxRounds; round++ {
		if round > 0 {
			// One NACK per receiver still missing any block, carrying all
			// of its per-block deficits.
			for _, states := range recvState {
				for _, fr := range states {
					if !fr.done {
						res.NACKs++
						break
					}
				}
			}
		}
		allDone := true
		roundKeys := 0
		for bi, b := range blocks {
			// How many shards to send this round?
			var toSend int
			if round == 0 {
				toSend = int(math.Ceil(pf.Rho * float64(b.k)))
			} else {
				// Max deficit over incomplete receivers (the batched NACK).
				maxDeficit := 0
				for _, states := range recvState {
					if d := states[bi].deficit(b.k); d > maxDeficit {
						maxDeficit = d
					}
				}
				toSend = maxDeficit
			}
			if toSend == 0 {
				continue
			}
			allDone = false
			for s := 0; s < toSend; s++ {
				shardIdx := b.sent
				if shardIdx >= len(b.shards) {
					shardIdx = b.sent % len(b.shards) // recycle shards if parity exhausted
				}
				transmitShard(bi, shardIdx)
				b.sent++
				roundKeys += keysPerShard
			}
		}
		if roundKeys > 0 {
			res.Rounds++
			res.KeysSent += roundKeys
			res.KeysPerRound = append(res.KeysPerRound, roundKeys)
		}
		if allDone || rs.satisfied() {
			break
		}
	}
	if rs.satisfied() {
		res.Delivered = true
		return res, nil
	}
	return res, rs.undelivered(pf.Config.MaxRounds)
}

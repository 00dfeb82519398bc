package transport

import (
	"fmt"

	"groupkey/internal/keytree"
	"groupkey/internal/netsim"
)

// MultiSend is the MSEC-style baseline protocol (Section 2.2): every key is
// multicast with the same fixed degree of replication, regardless of how
// many receivers need it or how lossy they are. NACKed keys are re-sent
// with the same replication in subsequent rounds.
type MultiSend struct {
	Config Config
	// Replication is the uniform per-key copy count per round (≥ 1).
	Replication int
	// Order is the packing order (breadth-first by default).
	Order PackOrder
	// Metrics, when non-nil, receives per-delivery costs.
	Metrics *Metrics
}

// NewMultiSend returns the protocol with the given uniform replication.
func NewMultiSend(cfg Config, replication int) *MultiSend {
	return &MultiSend{Config: cfg, Replication: replication, Order: BreadthFirst}
}

// Name implements Protocol.
func (ms *MultiSend) Name() string { return "multi-send" }

// Deliver implements Protocol.
func (ms *MultiSend) Deliver(items []keytree.Item, need func(keytree.MemberID) []uint32, net *netsim.Network) (Result, error) {
	if err := ms.Config.Validate(); err != nil {
		return Result{}, err
	}
	if ms.Replication < 1 {
		return Result{}, fmt.Errorf("%w: replication=%d", ErrBadConfig, ms.Replication)
	}
	order := ms.Order
	if order == 0 {
		order = BreadthFirst
	}

	rs := newReceiverState(need, net)
	var res Result
	defer func() { ms.Metrics.observeResult(res) }()
	for round := 0; round < ms.Config.MaxRounds; round++ {
		if rs.satisfied() {
			res.Delivered = true
			return res, nil
		}
		pending := rs.pendingItems()
		weights := make(map[int]int, len(pending))
		for _, i := range pending {
			weights[i] = ms.Replication
		}
		ordered := orderItems(items, pending, order)
		packets := packReplicated(ordered, weights, ms.Config.KeysPerPacket)

		if round > 0 {
			res.NACKs += len(rs.receivers()) // each outstanding receiver NACKed once
		}
		res.Rounds++
		res.PacketsSent += len(packets)
		sent := keyCount(packets)
		res.KeysSent += sent
		res.KeysPerRound = append(res.KeysPerRound, sent)

		for _, p := range packets {
			got := net.Multicast(p.interestedUnion(rs))
			for r := range got {
				for _, i := range p.items {
					rs.got(r, i)
				}
			}
		}
	}
	if rs.satisfied() {
		res.Delivered = true
		return res, nil
	}
	return res, rs.undelivered(ms.Config.MaxRounds)
}

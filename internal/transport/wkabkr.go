package transport

import (
	"math"

	"groupkey/internal/keytree"
	"groupkey/internal/netsim"
)

// WKABKR is the weighted-key-assignment / batched-key-retransmission
// protocol of Setia et al. (Section 2.2.1):
//
//   - WKA: each updated key's replication weight is its expected number of
//     transmissions E[M], computed from the loss rates of the receivers
//     that need it; high-value keys (near the root, many receivers) are
//     proactively replicated across distinct packets.
//   - BKR: after each multicast round the server collects NACKs and packs
//     fresh packets containing only the keys still needed, re-weighted for
//     the residual receiver set — never blind retransmission of old
//     packets.
type WKABKR struct {
	Config Config
	// Order is the packing order (breadth-first by default).
	Order PackOrder
	// MaxWeight caps per-key proactive replication.
	MaxWeight int
	// Metrics, when non-nil, receives per-delivery costs and per-key
	// replication weights.
	Metrics *Metrics
}

// NewWKABKR returns the protocol with standard settings: breadth-first
// packing and replication capped at 8.
func NewWKABKR(cfg Config) *WKABKR {
	return &WKABKR{Config: cfg, Order: BreadthFirst, MaxWeight: 8}
}

// Name implements Protocol.
func (w *WKABKR) Name() string { return "wka-bkr" }

// Deliver implements Protocol.
func (w *WKABKR) Deliver(items []keytree.Item, need func(keytree.MemberID) []uint32, net *netsim.Network) (Result, error) {
	if err := w.Config.Validate(); err != nil {
		return Result{}, err
	}
	maxWeight := w.MaxWeight
	if maxWeight < 1 {
		maxWeight = 8
	}
	order := w.Order
	if order == 0 {
		order = BreadthFirst
	}

	rs := newReceiverState(need, net)
	var res Result
	defer func() { w.Metrics.observeResult(res) }()
	for round := 0; round < w.Config.MaxRounds; round++ {
		if rs.satisfied() {
			res.Delivered = true
			return res, nil
		}
		pending := rs.pendingItems()
		weights := make(map[int]int, len(pending))
		for _, i := range pending {
			em := w.expectedTransmissions(rs.interestedIn(i), net)
			// Round to the nearest whole replication count: ceiling would
			// force two copies of every key the moment loss is nonzero,
			// over-replicating the many near-leaf keys with E[M] ≈ 1.
			wgt := int(math.Floor(em + 0.5))
			if wgt < 1 {
				wgt = 1
			}
			if wgt > maxWeight {
				wgt = maxWeight
			}
			weights[i] = wgt
			w.Metrics.observeWeight(wgt)
		}
		ordered := orderItems(items, pending, order)
		packets := packReplicated(ordered, weights, w.Config.KeysPerPacket)

		if round > 0 {
			res.NACKs += len(rs.receivers()) // BKR: each outstanding receiver NACKed once
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
	return res, rs.undelivered(w.Config.MaxRounds)
}

// expectedTransmissions evaluates E[M] for a key needed by the given
// receivers, using the server's loss estimates.
func (w *WKABKR) expectedTransmissions(receivers []keytree.MemberID, net *netsim.Network) float64 {
	if len(receivers) == 0 {
		return 0
	}
	losses := make([]float64, len(receivers))
	for i, r := range receivers {
		losses[i] = w.Config.lossOf(r, net)
	}
	return ExpectedTransmissions(losses)
}

// ExpectedTransmissions evaluates the WKA weight — the expected number of
// transmissions until every receiver with the given loss rates has a copy:
//
//	E[M] = 1 + Σ_{m≥1} (1 − Π_r (1 − p_r^m))
//
// Receivers are grouped by loss rate so the product costs O(distinct
// rates) per term. Rates outside [0, 1) are ignored (they contribute
// nothing or would diverge). The key server's datagram plane feeds its
// subscribers' piggybacked loss estimates through this to size proactive
// parity (ProactiveParity).
func ExpectedTransmissions(losses []float64) float64 {
	if len(losses) == 0 {
		return 0
	}
	counts := make(map[float64]int)
	for _, p := range losses {
		if p > 0 && p < 1 {
			counts[p]++
		}
	}
	e := 1.0
	for m := 1; m <= 10000; m++ {
		cdf := 1.0
		for p, c := range counts {
			cdf *= math.Pow(1-math.Pow(p, float64(m)), float64(c))
		}
		term := 1 - cdf
		e += term
		if term < 1e-9 {
			break
		}
	}
	return e
}

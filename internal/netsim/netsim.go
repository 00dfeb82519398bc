// Package netsim simulates the lossy multicast data plane under a rekey
// transport protocol: every receiver has an independent loss process
// (Bernoulli, matching the paper's analysis, or Gilbert-Elliott for bursty
// links), and the key server's packets are delivered or dropped
// per-receiver. The simulator is round-based — the transport multicasts a
// set of packets, observes which receivers got what, collects NACK
// feedback (assumed reliable, as in the WKA-BKR analysis) and sends again.
package netsim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"

	"groupkey/internal/keytree"
)

// Network errors.
var (
	ErrReceiverExists  = errors.New("netsim: receiver already registered")
	ErrReceiverUnknown = errors.New("netsim: unknown receiver")
)

// LossProcess decides, packet by packet, whether a receiver's link drops
// the packet. Implementations may be stateful (burst models); each receiver
// owns its instance.
type LossProcess interface {
	// Lost reports whether the next packet is dropped.
	Lost(rng *rand.Rand) bool
	// Rate returns the long-run loss probability, used for reporting and
	// for loss-class assignment.
	Rate() float64
}

// Bernoulli drops each packet independently with probability P — the loss
// model of the paper's analysis (Appendix B).
type Bernoulli struct {
	P float64
}

// Lost implements LossProcess.
func (b Bernoulli) Lost(rng *rand.Rand) bool { return rng.Float64() < b.P }

// Rate implements LossProcess.
func (b Bernoulli) Rate() float64 { return b.P }

// GilbertElliott is the classic two-state burst-loss channel: the link
// alternates between a Good and a Bad state with geometric sojourn times;
// each state has its own drop probability.
type GilbertElliott struct {
	GoodToBad float64 // P(transition G→B) per packet
	BadToGood float64 // P(transition B→G) per packet
	LossGood  float64 // drop probability in Good
	LossBad   float64 // drop probability in Bad
	bad       bool    // current state
}

// NewGilbertElliott validates and builds a burst-loss process starting in
// the Good state.
func NewGilbertElliott(goodToBad, badToGood, lossGood, lossBad float64) (*GilbertElliott, error) {
	for _, p := range []float64{goodToBad, badToGood, lossGood, lossBad} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("netsim: gilbert-elliott probability %v out of [0,1]", p)
		}
	}
	if goodToBad+badToGood == 0 {
		return nil, errors.New("netsim: gilbert-elliott chain has no transitions")
	}
	return &GilbertElliott{
		GoodToBad: goodToBad, BadToGood: badToGood,
		LossGood: lossGood, LossBad: lossBad,
	}, nil
}

// Lost implements LossProcess: advance the chain, then draw a loss.
func (g *GilbertElliott) Lost(rng *rand.Rand) bool {
	if g.bad {
		if rng.Float64() < g.BadToGood {
			g.bad = false
		}
	} else {
		if rng.Float64() < g.GoodToBad {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return rng.Float64() < p
}

// Rate implements LossProcess: the stationary loss probability
// π_B·lossBad + π_G·lossGood.
func (g *GilbertElliott) Rate() float64 {
	piBad := g.GoodToBad / (g.GoodToBad + g.BadToGood)
	return piBad*g.LossBad + (1-piBad)*g.LossGood
}

// Stats counts network activity since creation.
type Stats struct {
	PacketsMulticast int // multicast transmissions (one per packet, not per receiver)
	PacketsUnicast   int // unicast transmissions
	Deliveries       int // per-receiver successful receptions
	Drops            int // per-receiver losses
}

// ReceiverStats counts one receiver's traffic. Section 4.4 discusses
// inter-receiver fairness: low-loss members should not have to receive the
// redundant transmissions provoked by high-loss members, and these
// counters make that measurable.
type ReceiverStats struct {
	Delivered int // packets addressed to and received by this member
	Dropped   int // packets addressed to but lost by this member
}

// Network is the simulated multicast fabric. Not safe for concurrent use.
type Network struct {
	rng       *rand.Rand
	receivers map[keytree.MemberID]LossProcess
	stats     Stats
	// perReceiver persists across RemoveReceiver so post-run fairness
	// analysis covers departed members too.
	perReceiver map[keytree.MemberID]*ReceiverStats
	metrics     *Metrics
}

// New creates a network with a deterministic seed.
func New(seed uint64) *Network {
	return &Network{
		rng:         rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb)),
		receivers:   make(map[keytree.MemberID]LossProcess),
		perReceiver: make(map[keytree.MemberID]*ReceiverStats),
	}
}

// ReceiverStats returns a member's cumulative traffic counters (zero value
// for members never addressed).
func (n *Network) ReceiverStats(id keytree.MemberID) ReceiverStats {
	if rs, ok := n.perReceiver[id]; ok {
		return *rs
	}
	return ReceiverStats{}
}

func (n *Network) recvStats(id keytree.MemberID) *ReceiverStats {
	rs, ok := n.perReceiver[id]
	if !ok {
		rs = &ReceiverStats{}
		n.perReceiver[id] = rs
	}
	return rs
}

// AddReceiver registers a receiver with its loss process.
func (n *Network) AddReceiver(id keytree.MemberID, loss LossProcess) error {
	if _, ok := n.receivers[id]; ok {
		return fmt.Errorf("%w: %d", ErrReceiverExists, id)
	}
	n.receivers[id] = loss
	n.metrics.noteReceiver(loss.Rate())
	return nil
}

// RemoveReceiver deregisters a receiver (a departed member).
func (n *Network) RemoveReceiver(id keytree.MemberID) error {
	if _, ok := n.receivers[id]; !ok {
		return fmt.Errorf("%w: %d", ErrReceiverUnknown, id)
	}
	delete(n.receivers, id)
	return nil
}

// HasReceiver reports whether id is registered.
func (n *Network) HasReceiver(id keytree.MemberID) bool {
	_, ok := n.receivers[id]
	return ok
}

// Receivers returns the registered receiver IDs, ascending.
func (n *Network) Receivers() []keytree.MemberID {
	out := make([]keytree.MemberID, 0, len(n.receivers))
	for id := range n.receivers {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Size returns the number of registered receivers.
func (n *Network) Size() int { return len(n.receivers) }

// LossRate returns the long-run loss rate of a receiver's link.
func (n *Network) LossRate(id keytree.MemberID) (float64, error) {
	lp, ok := n.receivers[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrReceiverUnknown, id)
	}
	return lp.Rate(), nil
}

// Multicast transmits one packet to the whole group and reports, for the
// subset of receivers the caller cares about, which of them received it.
// Loss is drawn independently per interested receiver; uninterested
// receivers discard the packet without consuming randomness, keeping runs
// reproducible regardless of group size.
func (n *Network) Multicast(interested []keytree.MemberID) map[keytree.MemberID]bool {
	n.stats.PacketsMulticast++
	got := make(map[keytree.MemberID]bool, len(interested))
	dropped := 0
	for _, id := range interested {
		lp, ok := n.receivers[id]
		if !ok {
			continue
		}
		if lp.Lost(n.rng) {
			n.stats.Drops++
			n.recvStats(id).Dropped++
			dropped++
			continue
		}
		n.stats.Deliveries++
		n.recvStats(id).Delivered++
		got[id] = true
	}
	n.metrics.noteMulticast(len(got), dropped)
	return got
}

// Unicast transmits one packet to a single receiver and reports delivery.
func (n *Network) Unicast(id keytree.MemberID) (bool, error) {
	lp, ok := n.receivers[id]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrReceiverUnknown, id)
	}
	n.stats.PacketsUnicast++
	if lp.Lost(n.rng) {
		n.stats.Drops++
		n.recvStats(id).Dropped++
		n.metrics.noteUnicast(false)
		return false, nil
	}
	n.stats.Deliveries++
	n.recvStats(id).Delivered++
	n.metrics.noteUnicast(true)
	return true, nil
}

// Stats returns cumulative counters.
func (n *Network) Stats() Stats { return n.stats }

package transport

import (
	"testing"

	"groupkey/internal/keytree"
	"groupkey/internal/netsim"
)

// TestProtocolsDeliverUnderBurstLoss runs every protocol against a
// Gilbert-Elliott bursty channel with the same stationary loss rate as the
// Bernoulli scenarios — failure injection beyond the paper's independent-
// loss assumption.
func TestProtocolsDeliverUnderBurstLoss(t *testing.T) {
	items, need, members := buildPayload(t, 40, 4, 256, []keytree.MemberID{10, 100, 200})
	protocols := []func() Protocol{
		func() Protocol { return NewWKABKR(DefaultConfig()) },
		func() Protocol { return NewMultiSend(DefaultConfig(), 2) },
		func() Protocol { return NewProactiveFEC(DefaultConfig()) },
	}
	for _, build := range protocols {
		proto := build()
		t.Run(proto.Name(), func(t *testing.T) {
			net := netsim.New(41)
			for _, m := range members {
				ge, err := netsim.NewGilbertElliott(0.05, 0.3, 0.02, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				if err := net.AddReceiver(m, ge); err != nil {
					t.Fatal(err)
				}
			}
			res, err := proto.Deliver(items, need, net)
			if err != nil {
				t.Fatalf("Deliver under burst loss: %v", err)
			}
			if !res.Delivered {
				t.Fatal("not delivered")
			}
			if res.KeysSent <= len(items) {
				t.Errorf("KeysSent=%d suspiciously low for a bursty channel (%d items)", res.KeysSent, len(items))
			}
		})
	}
}

// TestBurstLossCostsMoreThanIndependentLoss quantifies what bursts do to a
// NACK-based protocol: with the same stationary loss rate, correlated
// losses concentrate deficits on a few receivers and rounds.
func TestBurstLossCostsMoreThanIndependentLoss(t *testing.T) {
	run := func(burst bool) int {
		items, need, members := buildPayload(t, 42, 4, 512, []keytree.MemberID{7, 70, 300, 444})
		net := netsim.New(43)
		for _, m := range members {
			var lp netsim.LossProcess
			if burst {
				ge, err := netsim.NewGilbertElliott(0.02, 0.18, 0.0, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				lp = ge // stationary rate = 0.1·0.5 = 5%
			} else {
				lp = netsim.Bernoulli{P: 0.05}
			}
			if err := net.AddReceiver(m, lp); err != nil {
				t.Fatal(err)
			}
		}
		res, err := NewWKABKR(DefaultConfig()).Deliver(items, need, net)
		if err != nil {
			t.Fatalf("Deliver: %v", err)
		}
		if !res.Delivered {
			t.Fatal("not delivered")
		}
		return res.KeysSent
	}
	independent := run(false)
	bursty := run(true)
	// Bursts must not be catastrophically worse (the protocol still
	// converges) but typically cost at least as much.
	if bursty > 5*independent {
		t.Fatalf("burst cost %d catastrophically above independent %d", bursty, independent)
	}
	t.Logf("WKA-BKR keys sent: independent=%d bursty=%d", independent, bursty)
}

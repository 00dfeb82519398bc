package transport

import (
	"errors"
	"testing"

	"groupkey/internal/keytree"
	"groupkey/internal/netsim"
)

// TestUndeliveredErrorDetail forces a give-up (100% loss, one round) on
// every protocol and checks the error both satisfies the sentinel and
// carries the deficit counts repair logic needs.
func TestUndeliveredErrorDetail(t *testing.T) {
	items, need, members := buildPayload(t, 3, 4, 32, []keytree.MemberID{5})
	net := netsim.New(9)
	for _, m := range members {
		if err := net.AddReceiver(m, netsim.Bernoulli{P: 1}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.MaxRounds = 1
	protocols := []Protocol{NewWKABKR(cfg), NewMultiSend(cfg, 2), NewProactiveFEC(cfg)}
	wantSlots := 0
	for _, m := range members {
		wantSlots += len(need(m))
	}
	for _, p := range protocols {
		_, err := p.Deliver(items, need, net)
		if !errors.Is(err, ErrUndelivered) {
			t.Fatalf("%s: err = %v, want ErrUndelivered", p.Name(), err)
		}
		var ue *UndeliveredError
		if !errors.As(err, &ue) {
			t.Fatalf("%s: error %T does not carry UndeliveredError", p.Name(), err)
		}
		if ue.Receivers != len(members) {
			t.Errorf("%s: %d receivers outstanding, want %d", p.Name(), ue.Receivers, len(members))
		}
		if ue.KeySlots != wantSlots {
			t.Errorf("%s: %d key slots outstanding, want %d", p.Name(), ue.KeySlots, wantSlots)
		}
		if ue.Rounds != 1 {
			t.Errorf("%s: rounds = %d, want 1", p.Name(), ue.Rounds)
		}
	}
}

func TestExpectedTransmissionsExported(t *testing.T) {
	if got := ExpectedTransmissions(nil); got != 0 {
		t.Fatalf("no receivers: %v", got)
	}
	if got := ExpectedTransmissions([]float64{0, 0}); got != 1 {
		t.Fatalf("lossless: %v, want 1", got)
	}
	low := ExpectedTransmissions([]float64{0.01, 0.01})
	high := ExpectedTransmissions([]float64{0.25, 0.25, 0.25, 0.25})
	if !(low > 1 && high > low) {
		t.Fatalf("E[M] not monotone in loss: low=%v high=%v", low, high)
	}
	// Out-of-range rates are ignored, not divergent.
	if got := ExpectedTransmissions([]float64{1.5, -0.2}); got != 1 {
		t.Fatalf("invalid rates: %v, want 1", got)
	}
}

func TestProactiveParitySizing(t *testing.T) {
	// Lossless subscribers: floor applies.
	if got := ProactiveParity(8, nil, 1, 32); got != 1 {
		t.Fatalf("lossless parity = %d, want floor 1", got)
	}
	// Heavier loss demands more parity, capped at max.
	mild := ProactiveParity(8, []float64{0.05, 0.05, 0.05}, 1, 32)
	heavy := ProactiveParity(8, []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3}, 1, 32)
	if !(mild >= 1 && heavy > mild) {
		t.Fatalf("parity not monotone: mild=%d heavy=%d", mild, heavy)
	}
	if got := ProactiveParity(8, []float64{0.5, 0.5, 0.5, 0.5}, 1, 3); got != 3 {
		t.Fatalf("parity cap: %d, want 3", got)
	}
	if got := ProactiveParity(0, []float64{0.5}, 2, 8); got != 2 {
		t.Fatalf("k=0 parity = %d, want min", got)
	}
}

func TestPackIndexesCanonical(t *testing.T) {
	items, _, _ := buildPayload(t, 4, 3, 27, []keytree.MemberID{2})
	groups := PackIndexes(items, DepthFirst, 5)
	seen := make(map[int]bool)
	for gi, g := range groups {
		if len(g) > 5 {
			t.Fatalf("group %d has %d items", gi, len(g))
		}
		if gi < len(groups)-1 && len(g) != 5 {
			t.Fatalf("non-final group %d has %d items, want full", gi, len(g))
		}
		for _, i := range g {
			if seen[i] {
				t.Fatalf("item %d packed twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(items) {
		t.Fatalf("packed %d of %d items", len(seen), len(items))
	}
	if PackIndexes(nil, BreadthFirst, 5) != nil || PackIndexes(items, BreadthFirst, 0) != nil {
		t.Fatal("degenerate packings should be nil")
	}
}

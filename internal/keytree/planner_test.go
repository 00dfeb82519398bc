package keytree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"groupkey/internal/keycrypt"
)

// biasedBatches generates churn like fuzzBatches but with independently
// bounded join/leave sizes, so regimes can be skewed toward surplus joins
// (maxJoin > maxLeave) or surplus departures (maxLeave > maxJoin).
func biasedBatches(seed int64, initial, rounds, maxJoin, maxLeave int) []Batch {
	rnd := rand.New(rand.NewSource(seed))
	next := MemberID(1)
	var present []MemberID
	var batches []Batch

	prime := Batch{}
	for i := 0; i < initial; i++ {
		prime.Joins = append(prime.Joins, next)
		present = append(present, next)
		next++
	}
	batches = append(batches, prime)

	for r := 0; r < rounds; r++ {
		b := Batch{}
		nJoin := rnd.Intn(maxJoin + 1)
		nLeave := rnd.Intn(maxLeave + 1)
		// Never drain the group below a handful of members.
		if rest := len(present) - nLeave; rest < 4 {
			nLeave = max(0, len(present)-4)
		}
		rnd.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
		b.Leaves = append(b.Leaves, present[:nLeave]...)
		present = present[nLeave:]
		for i := 0; i < nJoin; i++ {
			b.Joins = append(b.Joins, next)
			present = append(present, next)
			next++
		}
		batches = append(batches, b)
	}
	return batches
}

// checkPlacement asserts the payload's realized placement is a well-formed
// cover of the batch and, when the batch was simulated, that the realized
// multicast wrap count equals the prediction.
func checkPlacement(tb testing.TB, tr *Tree, b Batch, p *Payload) {
	tb.Helper()
	pl := p.Placement
	holes := make(map[MemberID]bool, len(b.Leaves))
	for _, m := range b.Leaves {
		holes[m] = false
	}
	joiners := make(map[MemberID]bool, len(b.Joins))
	for _, m := range b.Joins {
		joiners[m] = false
	}
	takeHole := func(m MemberID) {
		used, ok := holes[m]
		if !ok || used {
			tb.Fatalf("placement consumes hole %d badly (known=%v used=%v)", m, ok, used)
		}
		holes[m] = true
	}
	takeJoiner := func(m MemberID) {
		used, ok := joiners[m]
		if !ok || used {
			tb.Fatalf("placement places joiner %d badly (known=%v used=%v)", m, ok, used)
		}
		joiners[m] = true
	}
	for _, f := range pl.Fills {
		takeHole(f.Hole)
		takeJoiner(f.Joiner)
	}
	for _, m := range pl.Removed {
		takeHole(m)
	}
	for _, mv := range pl.Moves {
		takeHole(mv.Hole)
		if !tr.Contains(mv.Member) {
			tb.Fatalf("moved member %d no longer in tree", mv.Member)
		}
	}
	for _, g := range pl.Grown {
		takeJoiner(g.Joiner)
	}
	for m, used := range holes {
		if !used {
			tb.Fatalf("hole %d never consumed by placement", m)
		}
	}
	for m, used := range joiners {
		if !used {
			tb.Fatalf("joiner %d never placed by placement", m)
		}
	}
	if pl.PredictedWraps >= 0 && pl.PredictedWraps != p.MulticastKeyCount() {
		tb.Fatalf("planner predicted %d multicast wraps, realized %d (J=%d L=%d planned=%v moves=%d)",
			pl.PredictedWraps, p.MulticastKeyCount(), len(b.Joins), len(b.Leaves), pl.Planned, len(pl.Moves))
	}
}

// greedyOracle applies the batch with the greedy pairing to a snapshot
// clone of tr — the differential baseline: "what would this exact tree
// state have paid without the planner?"
func greedyOracle(tb testing.TB, tr *Tree, b Batch) (*Payload, *Tree) {
	tb.Helper()
	blob, err := tr.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	clone, err := Restore(blob, WithRand(keycrypt.NewDeterministicReader(0xfeed)))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := clone.Rekey(b)
	if err != nil {
		tb.Fatalf("greedy oracle rekey: %v", err)
	}
	return p, clone
}

// TestPlannerNeverWorseThanGreedy is the planner's core property: for
// every batch of seeded random churn, in every J≠L regime and at every
// tested group size, the planner's realized multicast wraps and post-batch
// ExpectedRekeyCost never exceed what the greedy pairing would have
// realized on the same tree state. This is exactly the dominance guard's
// contract at the default config, so it must hold for any seed.
func TestPlannerNeverWorseThanGreedy(t *testing.T) {
	type regime struct {
		name              string
		maxJoin, maxLeave int
	}
	regimes := []regime{
		{"balanced", 7, 7},
		{"join-heavy", 9, 3},
		{"leave-heavy", 3, 9},
	}
	sizes := []int{16, 1000}
	rounds := 30
	if !testing.Short() {
		sizes = append(sizes, 10000)
	}
	for _, n := range sizes {
		for _, rg := range regimes {
			for _, seed := range []int64{5, 23} {
				t.Run(fmt.Sprintf("n=%d/%s/seed=%d", n, rg.name, seed), func(t *testing.T) {
					var batches []Batch
					if rg.maxJoin == rg.maxLeave {
						batches = fuzzBatches(seed, n, rounds)
					} else {
						batches = biasedBatches(seed, n, rounds, rg.maxJoin, rg.maxLeave)
					}
					pt, err := New(4, WithRand(keycrypt.NewDeterministicReader(1)), WithPlanner(PlannerConfig{}))
					if err != nil {
						t.Fatal(err)
					}
					planned := 0
					for i, b := range batches {
						gp, clone := greedyOracle(t, pt, b)
						pp, err := pt.Rekey(b)
						if err != nil {
							t.Fatalf("batch %d: planner: %v", i, err)
						}
						checkPlacement(t, pt, b, pp)
						if pw, gw := pp.MulticastKeyCount(), gp.MulticastKeyCount(); pw > gw {
							t.Fatalf("batch %d (J=%d L=%d): planner wraps %d > greedy %d",
								i, len(b.Joins), len(b.Leaves), pw, gw)
						}
						l := max(1, len(b.Leaves))
						if pc, gc := pt.ExpectedRekeyCost(l), clone.ExpectedRekeyCost(l); pc > gc+costEps(gc) {
							t.Fatalf("batch %d (J=%d L=%d): planner cost %.6f > greedy %.6f",
								i, len(b.Joins), len(b.Leaves), pc, gc)
						}
						if pt.Size() != clone.Size() {
							t.Fatalf("batch %d: membership diverged: planner %d, greedy %d", i, pt.Size(), clone.Size())
						}
						if pp.Placement.Planned {
							planned++
						}
					}
					if st := pt.PlannerStats(); st.PlannedBatches != planned {
						t.Fatalf("PlannedBatches counter %d, observed %d planned payloads", st.PlannedBatches, planned)
					}
				})
			}
		}
	}
}

// TestPlannerDeterministicAcrossEmitters runs the planner-enabled tree
// through the legacy serial emitter and the planned engine over identical
// churn, asserting byte-identical payloads — the contract WAL replay and
// cluster replication depend on.
func TestPlannerDeterministicAcrossEmitters(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				cfg := PlannerConfig{DriftFactor: 1.01, MoveWrapSlack: 2} // make moves likely
				serial, err := New(3, WithRand(keycrypt.NewDeterministicReader(uint64(seed))), WithLegacyRekey(), WithPlanner(cfg))
				if err != nil {
					t.Fatal(err)
				}
				engine, err := New(3, WithRand(keycrypt.NewDeterministicReader(uint64(seed))), WithWrapWorkers(workers), WithPlanner(cfg))
				if err != nil {
					t.Fatal(err)
				}
				for i, b := range biasedBatches(seed, 40, 30, 3, 9) {
					ps, err := serial.Rekey(b)
					if err != nil {
						t.Fatalf("batch %d: serial: %v", i, err)
					}
					pe, err := engine.Rekey(b)
					if err != nil {
						t.Fatalf("batch %d: engine: %v", i, err)
					}
					if !bytes.Equal(marshalPayload(t, ps), marshalPayload(t, pe)) {
						t.Fatalf("batch %d: planner payload bytes diverge", i)
					}
				}
				if sm, em := serial.PlannerStats().Moves, engine.PlannerStats().Moves; sm != em {
					t.Fatalf("move counts diverge: serial %d, engine %d", sm, em)
				}
			})
		}
	}
}

// TestBalancedRekeyCostBound checks the rebalancer's reference bound: a
// greedily grown (join-only, hence balanced) tree should sit at drift ≈ 1,
// and the bound must never exceed the real tree's cost by more than split
// rounding noise.
func TestBalancedRekeyCostBound(t *testing.T) {
	for _, n := range []int{2, 7, 16, 100, 1000} {
		tr, err := New(4, WithRand(keycrypt.NewDeterministicReader(9)))
		if err != nil {
			t.Fatal(err)
		}
		prime := Batch{}
		for i := 1; i <= n; i++ {
			prime.Joins = append(prime.Joins, MemberID(i))
		}
		if _, err := tr.Rekey(prime); err != nil {
			t.Fatal(err)
		}
		for _, l := range []int{1, 4} {
			drift := tr.CostDrift(l)
			if drift < 0.95 || drift > 1.3 {
				t.Fatalf("n=%d l=%d: balanced-grown tree drift %.4f outside [0.95, 1.3]", n, l, drift)
			}
		}
	}
	if got := BalancedRekeyCost(1, 4, 3); got != 0 {
		t.Fatalf("single-member balanced cost = %v, want 0", got)
	}
}

// driftedTree hand-builds the shape where an amortized move strictly beats
// greedy removal at zero wrap slack: a bushy 4-member subtree on the
// root's left flank (removing one of its members does not splice depth
// away) and a deep degree-2 caterpillar chain on the right (members at
// depths 2..chain+1). When a batch departs one bush member and one chain-
// bottom member, the chain's path is already departure-dirty, so
// relocating the remaining bottom member into the bush hole shortens the
// chain by an extra level, skips one child wrap (the hole's parent gains
// an all-joiner child), and strictly lowers the expected cost — something
// no greedy removal order can do. The tree is built greedily (no
// planner), snapshotted, and restored with the planner so it meets the
// drifted shape cold.
func driftedTree(tb testing.TB, chain int, cfg PlannerConfig) (*Tree, MemberID, MemberID) {
	tb.Helper()
	tr, err := New(2, WithRand(keycrypt.NewDeterministicReader(77)))
	if err != nil {
		tb.Fatal(err)
	}
	mint := func() keycrypt.Key {
		k, err := tr.freshKey()
		if err != nil {
			tb.Fatal(err)
		}
		return k
	}
	mkLeaf := func(m MemberID, parent *Node) *Node {
		leaf := &Node{key: mint(), parent: parent, member: m, leaves: 1}
		tr.leaves[m] = leaf
		return leaf
	}
	// 4 bush members + chain members (one per interior plus a second at
	// the bottom) hang off the root.
	root := &Node{key: mint(), leaves: 4 + chain}
	tr.root = root
	bush := &Node{key: mint(), parent: root, leaves: 4}
	for i := 0; i < 2; i++ {
		pair := &Node{key: mint(), parent: bush, leaves: 2}
		pair.children = []*Node{mkLeaf(MemberID(2*i+1), pair), mkLeaf(MemberID(2*i+2), pair)}
		bush.children = append(bush.children, pair)
	}
	spine := root
	next := MemberID(5)
	for k := 1; k < chain; k++ {
		r := &Node{key: mint(), parent: spine, leaves: chain + 1 - k}
		if spine == root {
			spine.children = []*Node{bush, r}
		} else {
			spine.children = append(spine.children, r)
		}
		r.children = []*Node{mkLeaf(next, r)}
		next++
		spine = r
	}
	// The deepest interior holds the last two chain members side by side.
	spine.children = append(spine.children, mkLeaf(next, spine))
	bottom := next
	blob, err := tr.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	restored, err := Restore(blob, WithRand(keycrypt.NewDeterministicReader(78)), WithPlanner(cfg))
	if err != nil {
		tb.Fatal(err)
	}
	return restored, bottom - 1, bottom
}

// TestRebalancerMovesUnderDrift puts the planner in front of a drifted
// tree and verifies that a hole-rich batch schedules amortized moves at
// zero wrap slack, beats greedy on both realized wraps and expected cost,
// and gives every moved member a LeafRefresh bridge onto its new leaf key.
func TestRebalancerMovesUnderDrift(t *testing.T) {
	const chain = 7
	cfg := PlannerConfig{DriftFactor: 1.05, MaxMovesPerBatch: 2}
	tr, bottomA, _ := driftedTree(t, chain, cfg)
	if drift := tr.CostDrift(2); drift < cfg.DriftFactor {
		t.Fatalf("drifted tree drift %.4f below trigger %.4f", drift, cfg.DriftFactor)
	}

	// One bush member and one chain-bottom member depart: the bush hole is
	// shallow and splice-free, and the chain path is already dirty, so a
	// move of the surviving bottom member is wrap-neutral-or-better.
	b := Batch{Leaves: []MemberID{1, bottomA}}
	gp, clone := greedyOracle(t, tr, b)
	p, err := tr.Rekey(b)
	if err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, tr, b, p)
	if len(p.Placement.Moves) == 0 {
		t.Fatalf("no rebalance moves on drifted tree (drift %.4f)", clone.CostDrift(2))
	}
	if pw, gw := p.MulticastKeyCount(), gp.MulticastKeyCount(); pw > gw+0 {
		t.Fatalf("moves exceeded wrap slack: planner %d wraps, greedy %d", pw, gw)
	}
	if pc, gc := tr.ExpectedRekeyCost(2), clone.ExpectedRekeyCost(2); pc >= gc {
		t.Fatalf("moves did not improve expected cost: planner %.4f, greedy %.4f", pc, gc)
	}
	for _, mv := range p.Placement.Moves {
		var bridge *Item
		for j := range p.JoinerItems {
			it := &p.JoinerItems[j]
			if it.Kind == LeafRefresh && it.To == mv.Member {
				bridge = it
			}
		}
		if bridge == nil {
			t.Fatalf("move of member %d emitted no LeafRefresh bridge", mv.Member)
		}
		leaf, err := tr.Leaf(mv.Member)
		if err != nil {
			t.Fatal(err)
		}
		if bridge.Wrapped.PayloadID != leaf.Key().ID {
			t.Fatalf("bridge wraps key %v, mover leaf is %v", bridge.Wrapped.PayloadID, leaf.Key().ID)
		}
	}
}

// FuzzPlanBatch fuzzes the planner end to end: a seeded tree receives an
// arbitrary batch; the plan must validate, apply cleanly, realize exactly
// its predicted wrap count, and leave the tree structurally sound.
func FuzzPlanBatch(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(9), uint8(1))
	f.Add(int64(7), uint8(50), uint8(9), uint8(2), uint8(0))
	f.Add(int64(42), uint8(5), uint8(0), uint8(5), uint8(2))
	f.Add(int64(99), uint8(33), uint8(8), uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, initial, nJoin, nLeave, degSel uint8) {
		degree := 2 + int(degSel%4)
		tr, err := New(degree,
			WithRand(keycrypt.NewDeterministicReader(uint64(seed))),
			WithPlanner(PlannerConfig{DriftFactor: 1.05, MoveWrapSlack: int(degSel % 3)}))
		if err != nil {
			t.Fatal(err)
		}
		next := MemberID(1)
		var present []MemberID
		prime := Batch{}
		for i := 0; i < int(initial); i++ {
			prime.Joins = append(prime.Joins, next)
			present = append(present, next)
			next++
		}
		if len(prime.Joins) > 0 {
			if _, err := tr.Rekey(prime); err != nil {
				t.Fatal(err)
			}
		}
		// A couple of warm-up churn rounds so the tree shape is nontrivial.
		rnd := rand.New(rand.NewSource(seed))
		for r := 0; r < 2 && len(present) > 2; r++ {
			rnd.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
			k := rnd.Intn(len(present) / 2)
			b := Batch{Leaves: append([]MemberID(nil), present[:k]...)}
			present = present[k:]
			if _, err := tr.Rekey(b); err != nil {
				t.Fatal(err)
			}
		}

		b := Batch{}
		nl := int(nLeave)
		if nl > len(present) {
			nl = len(present)
		}
		rnd.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
		b.Leaves = append(b.Leaves, present[:nl]...)
		for i := 0; i < int(nJoin); i++ {
			b.Joins = append(b.Joins, next)
			next++
		}
		if b.IsEmpty() && tr.Size() == 0 {
			return
		}

		plan, err := tr.PlanBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.validatePlan(b, plan); err != nil {
			t.Fatalf("planner emitted invalid plan: %v", err)
		}
		p, err := tr.Rekey(b)
		if err != nil {
			t.Fatalf("planned batch failed to apply: %v", err)
		}
		checkPlacement(t, tr, b, p)

		// Structural soundness: member count, leaf bookkeeping, reachability.
		wantSize := len(present) - nl + int(nJoin)
		if tr.Size() != wantSize {
			t.Fatalf("tree size %d, want %d", tr.Size(), wantSize)
		}
		if tr.Root() != nil {
			if got := tr.Root().Leaves(); got != wantSize {
				t.Fatalf("root leaf count %d, want %d", got, wantSize)
			}
			count := 0
			walk(tr.Root(), func(n *Node) {
				if n.IsLeaf() {
					count++
					if n.Member() == 0 {
						t.Fatal("interior-free leaf without member")
					}
				} else if len(n.Children()) < 2 {
					t.Fatalf("interior node with %d children survived", len(n.Children()))
				}
			})
			if count != wantSize {
				t.Fatalf("walk found %d leaves, want %d", count, wantSize)
			}
		}
	})
}

package server

import (
	"crypto/ed25519"
	"testing"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// epochAllocs measures one single-change epoch on an n-member OneTree —
// one leave, one join, the seal, and routes for two connected members —
// in allocations per epoch.
func epochAllocs(t *testing.T, n int) float64 {
	t.Helper()
	sc, err := core.NewOneTree(core.WithRand(keycrypt.NewDeterministicReader(uint64(n))))
	if err != nil {
		t.Fatal(err)
	}
	var prime core.Batch
	for i := 1; i <= n; i++ {
		prime.Joins = append(prime.Joins, core.Join{ID: keytree.MemberID(i), Meta: core.MemberMeta{LossRate: -1}})
	}
	if _, err := sc.ProcessBatch(prime); err != nil {
		t.Fatal(err)
	}
	_, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(7))
	if err != nil {
		t.Fatal(err)
	}
	leave, next := keytree.MemberID(2), keytree.MemberID(n+1)
	return testing.AllocsPerRun(20, func() {
		rk, err := sc.ProcessBatch(core.Batch{
			Joins:  []core.Join{{ID: next, Meta: core.MemberMeta{LossRate: -1}}},
			Leaves: []keytree.MemberID{leave},
		})
		if err != nil {
			t.Fatal(err)
		}
		eb, err := newEpochBuffer(priv, rk)
		if err != nil {
			t.Fatal(err)
		}
		if len(eb.indexesFor(1)) == 0 || len(eb.indexesFor(next)) == 0 {
			t.Fatal("connected members routed nothing")
		}
		eb.release()
		leave, next = next, next+1
	})
}

// TestEpochAllocsIndependentOfGroupSize guards the per-epoch cost model: a
// single-change epoch touches O(log N) keys, so its allocations must not
// grow with the membership — nothing may build per-member lists, sort the
// membership or index every member each epoch.
func TestEpochAllocsIndependentOfGroupSize(t *testing.T) {
	small, large := epochAllocs(t, 1<<10), epochAllocs(t, 1<<16)
	t.Logf("allocs/epoch: N=1k %.0f, N=64k %.0f", small, large)
	if large > 2*small {
		t.Fatalf("allocs/epoch grow with group size: %.0f at N=1k, %.0f at N=64k (limit 2x)", small, large)
	}
}

package server

import (
	"crypto/ed25519"
	"testing"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// BenchmarkEpochSeal runs single-change OneTree epochs at N=100k with
// every member connected: apply one leave and one join, seal the rekey,
// and route every member — the worst case of the sparse fan-out, which
// the server pays under its lock. Apply is timed too: per-epoch routing
// work can sit in the emitter as well as in the seal.
func BenchmarkEpochSeal(b *testing.B) {
	const n = 100_000
	sc, err := core.NewOneTree(core.WithRand(keycrypt.NewDeterministicReader(1)))
	if err != nil {
		b.Fatal(err)
	}
	var prime core.Batch
	members := make([]keytree.MemberID, n)
	for i := range members {
		members[i] = keytree.MemberID(i + 1)
		prime.Joins = append(prime.Joins, core.Join{ID: members[i], Meta: core.MemberMeta{LossRate: -1}})
	}
	if _, err := sc.ProcessBatch(prime); err != nil {
		b.Fatal(err)
	}
	_, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(2))
	if err != nil {
		b.Fatal(err)
	}
	next := keytree.MemberID(n + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := (i * 7919) % n
		rk, err := sc.ProcessBatch(core.Batch{
			Joins:  []core.Join{{ID: next, Meta: core.MemberMeta{LossRate: -1}}},
			Leaves: []keytree.MemberID{members[slot]},
		})
		if err != nil {
			b.Fatal(err)
		}
		members[slot] = next
		next++
		eb, err := newEpochBuffer(priv, rk)
		if err != nil {
			b.Fatal(err)
		}
		routed := 0
		for _, m := range members {
			routed += len(eb.indexesFor(m))
		}
		if routed < n {
			b.Fatalf("%d indexes routed to %d members", routed, n)
		}
		eb.release()
	}
}

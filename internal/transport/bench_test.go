package transport

import (
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/netsim"
)

// benchScenario builds a standard payload (8 departures from a 1024-member
// tree) and a 10%-loss network.
func benchScenario(b *testing.B, seed uint64) ([]keytree.Item, func(keytree.MemberID) []uint32, []keytree.MemberID) {
	b.Helper()
	tr, err := keytree.New(4, keytree.WithRand(keycrypt.NewDeterministicReader(seed)))
	if err != nil {
		b.Fatal(err)
	}
	batch := keytree.Batch{}
	for i := 1; i <= 1024; i++ {
		batch.Joins = append(batch.Joins, keytree.MemberID(i))
	}
	if _, err := tr.Rekey(batch); err != nil {
		b.Fatal(err)
	}
	depart := keytree.Batch{}
	for i := 1; i <= 8; i++ {
		depart.Leaves = append(depart.Leaves, keytree.MemberID(i*113))
	}
	p, err := tr.Rekey(depart)
	if err != nil {
		b.Fatal(err)
	}
	return p.Items, treeRoute(tr, p.Items), tr.Members()
}

func benchProtocol(b *testing.B, build func() Protocol) {
	items, need, members := benchScenario(b, 1)
	var keys int
	for i := 0; i < b.N; i++ {
		net := netsim.New(uint64(i + 1))
		for _, m := range members {
			if err := net.AddReceiver(m, netsim.Bernoulli{P: 0.1}); err != nil {
				b.Fatal(err)
			}
		}
		res, err := build().Deliver(items, need, net)
		if err != nil {
			b.Fatal(err)
		}
		keys = res.KeysSent
	}
	b.ReportMetric(float64(keys), "keys/payload")
	b.ReportMetric(float64(len(items)), "payload-keys")
}

func BenchmarkWKABKRDeliver(b *testing.B) {
	benchProtocol(b, func() Protocol { return NewWKABKR(DefaultConfig()) })
}

func BenchmarkMultiSendDeliver(b *testing.B) {
	benchProtocol(b, func() Protocol { return NewMultiSend(DefaultConfig(), 2) })
}

func BenchmarkProactiveFECDeliver(b *testing.B) {
	benchProtocol(b, func() Protocol { return NewProactiveFEC(DefaultConfig()) })
}

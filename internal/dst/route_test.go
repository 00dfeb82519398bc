package dst

import (
	"testing"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// TestMulticastFollowsServerRoutes pins the simulator's multicast to the
// key server's routing rule on the case where the two once disagreed: a
// TT (K=1) departure batch whose S partition holds only that batch's
// joiners still emits the S-root group-key wrap. The server's sparse
// frames give that item to nobody; the simulator used to read its empty
// receiver list as "broadcast to everyone".
func TestMulticastFollowsServerRoutes(t *testing.T) {
	s, err := core.NewTwoPartition(core.TT, 1, core.WithRand(keycrypt.NewDeterministicReader(5)))
	if err != nil {
		t.Fatal(err)
	}
	var prime core.Batch
	for i := 1; i <= 40; i++ {
		prime.Joins = append(prime.Joins, core.Join{ID: keytree.MemberID(i)})
	}
	if _, err := s.ProcessBatch(prime); err != nil {
		t.Fatal(err)
	}
	// K=1: every primed member migrates to L now, so S holds only joiners.
	rk, err := s.ProcessBatch(core.Batch{
		Joins:  []core.Join{{ID: 41}, {ID: 42}},
		Leaves: []keytree.MemberID{7, 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SPartitionSize(); got != 2 {
		t.Fatalf("S partition holds %d members, want only the 2 joiners", got)
	}

	items := rk.AllItems()
	sRoot := -1
	for i, it := range items {
		if it.Kind == keytree.ChildWrap && it.Level == 0 && it.To == 0 {
			keys, err := s.MemberKeys(41)
			if err != nil {
				t.Fatal(err)
			}
			if it.Wrapped.WrapperID == keys[len(keys)-2].ID { // the S root
				sRoot = i
			}
		}
	}
	if sRoot < 0 {
		t.Fatal("no S-root group-key wrap emitted; the regression case is gone")
	}

	routes := core.NewRoutes(rk)
	never := func() bool { return false }
	gk, err := s.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Members() {
		recv := multicastFor(routes, items, m, never)
		if len(recv) != len(routes.Route(m)) {
			t.Fatalf("member %d: simulator delivered %d items, server routes %d", m, len(recv), len(routes.Route(m)))
		}
		for _, it := range recv {
			if it.Wrapped == items[sRoot].Wrapped {
				t.Fatalf("member %d received the S-root wrap nobody needs", m)
			}
		}
		if m <= 40 && !carries(recv, gk.ID) {
			t.Fatalf("existing member %d missed the new group key", m)
		}
	}
}

func carries(items []keytree.Item, id keycrypt.KeyID) bool {
	for _, it := range items {
		if it.Wrapped.PayloadID == id {
			return true
		}
	}
	return false
}

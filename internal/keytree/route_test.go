package keytree

import (
	"slices"
	"testing"

	"groupkey/internal/keycrypt"
)

// TestRouterRoutesByKeyPath checks the routing rule on a hand-built
// payload: multicast items reach the holders of their wrapping key minus
// the exclusion set, addressed items reach their addressee alone, and
// indexes come back ascending whatever the path order.
func TestRouterRoutesByKeyPath(t *testing.T) {
	under := func(id keycrypt.KeyID) keycrypt.WrappedKey { return keycrypt.WrappedKey{WrapperID: id} }
	joiners := map[MemberID]bool{3: true}
	items := []Item{
		{Wrapped: under(10), Exclude: joiners}, // 0: holders of 10 but not 3
		{Wrapped: under(20)},                   // 1: holders of 20
		{Wrapped: under(10), To: 3},            // 2: member 3 only
		{Wrapped: under(30), Exclude: joiners}, // 3: nobody holds 30
		{Wrapped: under(20), Exclude: joiners}, // 4: holders of 20 but not 3
	}
	r := NewRouter(items)
	for _, tc := range []struct {
		m    MemberID
		path []keycrypt.KeyID
		want []uint32
	}{
		{1, []keycrypt.KeyID{20, 10}, []uint32{0, 1, 4}},
		{2, []keycrypt.KeyID{20}, []uint32{1, 4}},
		{3, []keycrypt.KeyID{10, 20}, []uint32{1, 2}},
		{4, nil, nil},
	} {
		if got := r.Route(nil, tc.m, tc.path); !slices.Equal(got, tc.want) {
			t.Errorf("member %d: route %v, want %v", tc.m, got, tc.want)
		}
	}
	// Route appends: a prefix in dst is kept and left unsorted.
	if got := r.Route([]uint32{9}, 2, []keycrypt.KeyID{20}); !slices.Equal(got, []uint32{9, 1, 4}) {
		t.Errorf("appending route %v, want [9 1 4]", got)
	}
}

// TestRouteMatchesMembership checks the indexed router against a scan of
// every item under seeded churn: a member's route is exactly the multicast
// items wrapped under keys on its path (joiners excluded) plus its
// addressed items, and a departed member's route is empty.
func TestRouteMatchesMembership(t *testing.T) {
	tr := newTestTree(t, 3, 71)
	for _, b := range fuzzBatches(71, 90, 12) {
		p, err := tr.Rekey(b)
		if err != nil {
			t.Fatal(err)
		}
		items := p.AllItems()
		r := NewRouter(items)
		for _, m := range append(tr.Members(), b.Leaves...) {
			path, inTree := tr.PathIDs(nil, m)
			got := r.Route(nil, m, path)
			var want []uint32
			for i, it := range items {
				held := slices.Contains(path, it.Wrapped.WrapperID)
				if it.To == m || (it.To == 0 && held && !it.Exclude[m]) {
					want = append(want, uint32(i))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("member %d (in tree %v): route %v, want %v", m, inTree, got, want)
			}
			if !inTree && len(got) != 0 {
				t.Fatalf("departed member %d routed %v", m, got)
			}
		}
	}
}

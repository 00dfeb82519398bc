package core

import (
	"testing"

	"groupkey/internal/keytree"
)

// TestRoutesGoStaleAfterNextRekey checks the staleness guard: a routing
// table answers while its rekey is the scheme's newest, and routes nobody
// once the scheme has processed another batch or rotated — its key paths
// no longer match the rekey's items.
func TestRoutesGoStaleAfterNextRekey(t *testing.T) {
	build := map[string]func() (Scheme, error){
		"onetree":  func() (Scheme, error) { return NewOneTree(rnd(1)) },
		"naive":    func() (Scheme, error) { return NewNaive(rnd(2)) },
		"tt":       func() (Scheme, error) { return NewTwoPartition(TT, 2, rnd(3)) },
		"losshomo": func() (Scheme, error) { return NewLossHomogenized([]float64{0.05}, rnd(4)) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			s, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ProcessBatch(joinN(1, 16)); err != nil {
				t.Fatal(err)
			}
			rk, err := s.ProcessBatch(Batch{Leaves: leaves(3)})
			if err != nil {
				t.Fatal(err)
			}
			routes := NewRoutes(rk)
			routed := func() int {
				n := 0
				for _, m := range s.Members() {
					n += len(routes.Route(m))
				}
				return n
			}
			if routed() == 0 {
				t.Fatal("the newest rekey routes nobody")
			}
			if _, err := s.ProcessBatch(Batch{Joins: []Join{{ID: keytree.MemberID(100)}}}); err != nil {
				t.Fatal(err)
			}
			if n := routed(); n != 0 {
				t.Fatalf("stale rekey still routes %d items after the next batch", n)
			}

			rk, err = s.ProcessBatch(Batch{Leaves: leaves(5)})
			if err != nil {
				t.Fatal(err)
			}
			routes = NewRoutes(rk)
			if _, err := s.(Rotator).Rotate(); err != nil {
				t.Fatal(err)
			}
			if n := routed(); n != 0 {
				t.Fatalf("stale rekey still routes %d items after a rotation", n)
			}
		})
	}
}

package core

import (
	"errors"
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/member"
)

// harness drives a Scheme together with real client-side members and
// verifies the full cryptographic contract after every batch:
//
//   - every current member can decrypt its way to every key the server
//     says it holds (including the group key),
//   - members departed in this batch learn nothing from the payload and
//     cannot recover the new group key,
//   - joiners bootstrap from their welcome key alone.
type harness struct {
	t       *testing.T
	s       Scheme
	clients map[keytree.MemberID]*member.Member
}

func newHarness(t *testing.T, s Scheme) *harness {
	return &harness{t: t, s: s, clients: make(map[keytree.MemberID]*member.Member)}
}

func (h *harness) process(b Batch) *Rekey {
	h.t.Helper()
	r, err := h.s.ProcessBatch(b)
	if err != nil {
		h.t.Fatalf("%s: ProcessBatch: %v", h.s.Name(), err)
	}
	items := r.AllItems()

	departed := make(map[keytree.MemberID]bool, len(b.Leaves))
	for _, m := range b.Leaves {
		departed[m] = true
	}

	// Departed members: payload must be opaque.
	for _, m := range b.Leaves {
		c := h.clients[m]
		if c == nil {
			h.t.Fatalf("harness out of sync: no client for leaver %d", m)
		}
		if learned := c.Apply(items); learned != 0 {
			h.t.Fatalf("%s: departed member %d decrypted %d items", h.s.Name(), m, learned)
		}
		delete(h.clients, m)
	}

	// Joiners: bootstrap from the welcome key.
	for _, j := range b.Joins {
		wk, ok := r.Welcome[j.ID]
		if !ok {
			h.t.Fatalf("%s: no welcome key for joiner %d", h.s.Name(), j.ID)
		}
		h.clients[j.ID] = member.New(j.ID, wk)
	}

	// Everyone applies the payload and must reach their full key set.
	for id, c := range h.clients {
		c.Apply(items)
		want, err := h.s.MemberKeys(id)
		if err != nil {
			h.t.Fatalf("%s: MemberKeys(%d): %v", h.s.Name(), id, err)
		}
		for _, k := range want {
			if !c.Has(k) {
				h.t.Fatalf("%s: member %d missing key %v after epoch %d", h.s.Name(), id, k, r.Epoch)
			}
		}
	}

	// Group key agreement, and departed members shut out.
	if h.s.Size() > 0 {
		dek, err := h.s.GroupKey()
		if err != nil {
			h.t.Fatalf("%s: GroupKey: %v", h.s.Name(), err)
		}
		for id, c := range h.clients {
			if !c.Has(dek) {
				h.t.Fatalf("%s: member %d lacks the group key", h.s.Name(), id)
			}
		}
	}
	return r
}

func joins(meta MemberMeta, ids ...int) []Join {
	out := make([]Join, 0, len(ids))
	for _, id := range ids {
		out = append(out, Join{ID: keytree.MemberID(id), Meta: meta})
	}
	return out
}

func leaves(ids ...int) []keytree.MemberID {
	out := make([]keytree.MemberID, 0, len(ids))
	for _, id := range ids {
		out = append(out, keytree.MemberID(id))
	}
	return out
}

func rnd(seed uint64) Option { return WithRand(keycrypt.NewDeterministicReader(seed)) }

func TestOneTreeLifecycle(t *testing.T) {
	s, err := NewOneTree(rnd(1))
	if err != nil {
		t.Fatalf("NewOneTree: %v", err)
	}
	h := newHarness(t, s)
	h.process(Batch{Joins: joins(MemberMeta{}, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)})
	if s.Size() != 10 {
		t.Fatalf("Size=%d, want 10", s.Size())
	}
	h.process(Batch{Leaves: leaves(3, 7)})
	h.process(Batch{Joins: joins(MemberMeta{}, 11, 12), Leaves: leaves(1)})
	h.process(Batch{}) // no-op batch
	if s.Size() != 9 {
		t.Fatalf("Size=%d, want 9", s.Size())
	}
}

func TestNaiveLifecycleAndCost(t *testing.T) {
	s, err := NewNaive(rnd(2))
	if err != nil {
		t.Fatalf("NewNaive: %v", err)
	}
	h := newHarness(t, s)
	h.process(Batch{Joins: joins(MemberMeta{}, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)})
	r := h.process(Batch{Leaves: leaves(4)})
	// O(N): the new group key individually for all 9 remaining members.
	if got := r.MulticastKeyCount(); got != 9 {
		t.Fatalf("naive departure cost %d keys, want 9", got)
	}
	// Join-only rekey is a single old-key wrap.
	r = h.process(Batch{Joins: joins(MemberMeta{}, 11)})
	if got := r.MulticastKeyCount(); got != 1 {
		t.Fatalf("naive join cost %d keys, want 1", got)
	}
}

func TestOneTreeCheaperThanNaive(t *testing.T) {
	build := func() (Scheme, *harness) {
		s, err := NewOneTree(rnd(3))
		if err != nil {
			t.Fatal(err)
		}
		return s, newHarness(t, s)
	}
	sTree, hTree := build()
	_ = sTree
	nv, err := NewNaive(rnd(3))
	if err != nil {
		t.Fatal(err)
	}
	hNaive := newHarness(t, nv)

	var big []Join
	for i := 1; i <= 256; i++ {
		big = append(big, Join{ID: keytree.MemberID(i)})
	}
	hTree.process(Batch{Joins: big})
	hNaive.process(Batch{Joins: big})
	rt := hTree.process(Batch{Leaves: leaves(100)})
	rn := hNaive.process(Batch{Leaves: leaves(100)})
	if rt.MulticastKeyCount() >= rn.MulticastKeyCount() {
		t.Fatalf("LKH (%d keys) not cheaper than naive (%d keys)",
			rt.MulticastKeyCount(), rn.MulticastKeyCount())
	}
}

func TestTwoPartitionQTLifecycle(t *testing.T) {
	s, err := NewTwoPartition(QT, 2, rnd(4))
	if err != nil {
		t.Fatalf("NewTwoPartition: %v", err)
	}
	h := newHarness(t, s)
	// Epoch 1: joiners land in the S queue.
	h.process(Batch{Joins: joins(MemberMeta{}, 1, 2, 3, 4)})
	if s.SPartitionSize() != 4 || s.LPartitionSize() != 0 {
		t.Fatalf("S=%d L=%d, want 4/0", s.SPartitionSize(), s.LPartitionSize())
	}
	// Epoch 2: a queue departure rekeys the queue individually.
	r := h.process(Batch{Leaves: leaves(2)})
	// Cost: new DEK under each of the 3 remaining queue keys.
	if got := r.MulticastKeyCount(); got != 3 {
		t.Fatalf("QT queue departure cost %d, want 3 (= Ns)", got)
	}
	// Epoch 3: survivors of the S-period migrate to L (joined epoch 1,
	// K=2 ⇒ migrate at epoch 3). Pure migration: no DEK refresh.
	dekBefore, _ := s.GroupKey()
	h.process(Batch{})
	if s.SPartitionSize() != 0 || s.LPartitionSize() != 3 {
		t.Fatalf("after migration S=%d L=%d, want 0/3", s.SPartitionSize(), s.LPartitionSize())
	}
	dekAfter, _ := s.GroupKey()
	if !dekBefore.Equal(dekAfter) {
		t.Fatal("pure migration must not update the group key (Section 3.2 phase 3)")
	}
	// Epoch 4: departure from L.
	h.process(Batch{Leaves: leaves(1)})
	if s.Size() != 2 {
		t.Fatalf("Size=%d, want 2", s.Size())
	}
}

func TestTwoPartitionTTLifecycle(t *testing.T) {
	s, err := NewTwoPartition(TT, 3, rnd(5))
	if err != nil {
		t.Fatalf("NewTwoPartition: %v", err)
	}
	h := newHarness(t, s)
	h.process(Batch{Joins: joins(MemberMeta{}, 1, 2, 3, 4, 5, 6, 7, 8)})
	if s.SPartitionSize() != 8 {
		t.Fatalf("S=%d, want 8", s.SPartitionSize())
	}
	h.process(Batch{Joins: joins(MemberMeta{}, 9, 10), Leaves: leaves(3)})
	h.process(Batch{Leaves: leaves(5)})
	// Epoch 4: members from epoch 1 (joined at epoch 1, K=3) migrate.
	h.process(Batch{Joins: joins(MemberMeta{}, 11)})
	if s.LPartitionSize() == 0 {
		t.Fatal("no members migrated to L after the S-period")
	}
	// Members 9..11 are still in S (too young).
	if got := s.SPartitionSize(); got != 3 {
		t.Fatalf("S=%d, want 3 (members 9, 10, 11)", got)
	}
	// Mixed batch touching both partitions: 1 leaves L, 9 leaves S, and
	// member 10 (joined epoch 2, K=3) migrates in the same batch.
	h.process(Batch{Joins: joins(MemberMeta{}, 12, 13), Leaves: leaves(1, 9)})
	if s.Size() != 9 {
		t.Fatalf("Size=%d, want 9 (13 joined − 4 left)", s.Size())
	}
	if s.SPartitionSize() != 3 {
		t.Fatalf("S=%d, want 3 (members 11, 12, 13)", s.SPartitionSize())
	}
}

func TestTwoPartitionPTOracleRouting(t *testing.T) {
	s, err := NewTwoPartition(PT, 10, rnd(6))
	if err != nil {
		t.Fatalf("NewTwoPartition: %v", err)
	}
	h := newHarness(t, s)
	h.process(Batch{Joins: append(
		joins(MemberMeta{LongLived: false}, 1, 2, 3),
		joins(MemberMeta{LongLived: true}, 4, 5)...,
	)})
	if s.SPartitionSize() != 3 || s.LPartitionSize() != 2 {
		t.Fatalf("S=%d L=%d, want 3/2 (oracle routing)", s.SPartitionSize(), s.LPartitionSize())
	}
	// PT never migrates, even after many epochs.
	for i := 0; i < 12; i++ {
		h.process(Batch{})
	}
	if s.SPartitionSize() != 3 || s.LPartitionSize() != 2 {
		t.Fatalf("PT migrated members: S=%d L=%d", s.SPartitionSize(), s.LPartitionSize())
	}
	h.process(Batch{Leaves: leaves(1, 4)})
	if s.Size() != 3 {
		t.Fatalf("Size=%d, want 3", s.Size())
	}
}

func TestTwoPartitionKZeroDegeneratesToOneTree(t *testing.T) {
	s, err := NewTwoPartition(TT, 0, rnd(7))
	if err != nil {
		t.Fatalf("NewTwoPartition: %v", err)
	}
	h := newHarness(t, s)
	h.process(Batch{Joins: joins(MemberMeta{}, 1, 2, 3, 4, 5, 6, 7, 8)})
	if s.SPartitionSize() != 0 {
		t.Fatalf("K=0: S-partition holds %d members, want 0", s.SPartitionSize())
	}
	h.process(Batch{Leaves: leaves(4)})
	if s.SPartitionSize() != 0 || s.LPartitionSize() != 7 {
		t.Fatalf("K=0: S=%d L=%d, want 0/7", s.SPartitionSize(), s.LPartitionSize())
	}
}

func TestTwoPartitionValidation(t *testing.T) {
	if _, err := NewTwoPartition(PartitionMode(99), 5); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad mode: err=%v", err)
	}
	if _, err := NewTwoPartition(TT, -1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative K: err=%v", err)
	}
	s, err := NewTwoPartition(TT, 5, rnd(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProcessBatch(Batch{Leaves: leaves(42)}); !errors.Is(err, ErrMemberUnknown) {
		t.Errorf("unknown leaver: err=%v", err)
	}
	h := newHarness(t, s)
	h.process(Batch{Joins: joins(MemberMeta{}, 1)})
	if _, err := s.ProcessBatch(Batch{Joins: joins(MemberMeta{}, 1)}); !errors.Is(err, ErrMemberExists) {
		t.Errorf("duplicate join: err=%v", err)
	}
}

func TestLossHomogenizedRouting(t *testing.T) {
	s, err := NewLossHomogenized([]float64{0.05}, rnd(9))
	if err != nil {
		t.Fatalf("NewLossHomogenized: %v", err)
	}
	h := newHarness(t, s)
	h.process(Batch{Joins: []Join{
		{ID: 1, Meta: MemberMeta{LossRate: 0.02}},
		{ID: 2, Meta: MemberMeta{LossRate: 0.20}},
		{ID: 3, Meta: MemberMeta{LossRate: 0.01}},
		{ID: 4, Meta: MemberMeta{LossRate: -1}}, // unknown → lossy tree
		{ID: 5, Meta: MemberMeta{LossRate: 0.05}},
	}})
	wantTree := map[keytree.MemberID]int{1: 0, 2: 1, 3: 0, 4: 1, 5: 0}
	for m, want := range wantTree {
		got, err := s.TreeOf(m)
		if err != nil {
			t.Fatalf("TreeOf(%d): %v", m, err)
		}
		if got != want {
			t.Errorf("member %d in tree %d, want %d", m, got, want)
		}
	}
	if s.TreeSize(0) != 3 || s.TreeSize(1) != 2 {
		t.Fatalf("tree sizes %d/%d, want 3/2", s.TreeSize(0), s.TreeSize(1))
	}
	h.process(Batch{Leaves: leaves(2)})
	h.process(Batch{Joins: []Join{{ID: 6, Meta: MemberMeta{LossRate: 0.3}}}, Leaves: leaves(1)})
	if s.Size() != 4 {
		t.Fatalf("Size=%d, want 4", s.Size())
	}
}

func TestLossHomogenizedStreamIsolation(t *testing.T) {
	// The point of the scheme: each tree's items are needed only by that
	// tree's members, so transport can treat the streams independently.
	s, err := NewLossHomogenized([]float64{0.05}, rnd(10))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, s)
	var js []Join
	for i := 1; i <= 32; i++ {
		p := 0.02
		if i%4 == 0 {
			p = 0.2
		}
		js = append(js, Join{ID: keytree.MemberID(i), Meta: MemberMeta{LossRate: p}})
	}
	h.process(Batch{Joins: js})
	r := h.process(Batch{Leaves: leaves(4, 7)}) // one leaver per tree

	routes := NewRoutes(r)
	for i, st := range r.Streams {
		if st.Label == "group" {
			continue
		}
		var treeIdx int
		if _, err := fmtSscanf(st.Label, &treeIdx); err != nil {
			t.Fatalf("unexpected stream label %q", st.Label)
		}
		need := routes.StreamRoute(i)
		for _, rcv := range s.Members() {
			if len(need(rcv)) == 0 {
				continue
			}
			got, err := s.TreeOf(rcv)
			if err != nil {
				t.Fatalf("TreeOf(%d): %v", rcv, err)
			}
			if got != treeIdx {
				t.Fatalf("stream %q item reaches member %d of tree %d", st.Label, rcv, got)
			}
		}
	}
}

// fmtSscanf parses a "tree-%d" label.
func fmtSscanf(label string, out *int) (int, error) {
	n := 0
	var err error
	if len(label) > 5 && label[:5] == "tree-" {
		*out = 0
		for _, ch := range label[5:] {
			if ch < '0' || ch > '9' {
				return 0, errors.New("bad label")
			}
			*out = *out*10 + int(ch-'0')
			n = 1
		}
	}
	if n == 0 {
		err = errors.New("bad label")
	}
	return n, err
}

func TestRandomMultiTreeBalance(t *testing.T) {
	s, err := NewRandomMultiTree(2, rnd(11))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, s)
	var js []Join
	for i := 1; i <= 64; i++ {
		js = append(js, Join{ID: keytree.MemberID(i)})
	}
	h.process(Batch{Joins: js})
	if s.TreeSize(0) != 32 || s.TreeSize(1) != 32 {
		t.Fatalf("tree sizes %d/%d, want 32/32 (round robin)", s.TreeSize(0), s.TreeSize(1))
	}
	h.process(Batch{Leaves: leaves(1, 2, 3)})
	if s.Size() != 61 {
		t.Fatalf("Size=%d, want 61", s.Size())
	}
}

func TestMultiTreeValidation(t *testing.T) {
	if _, err := NewRandomMultiTree(0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("trees=0: err=%v", err)
	}
	if _, err := NewLossHomogenized([]float64{0.2, 0.1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("non-ascending bounds: err=%v", err)
	}
}

func TestSchemesLongChurnCryptoSoak(t *testing.T) {
	// Drive every scheme through the same 30-epoch churn and verify the
	// full crypto contract at each step.
	builders := []func() (Scheme, error){
		func() (Scheme, error) { return NewOneTree(rnd(100)) },
		func() (Scheme, error) { return NewNaive(rnd(101)) },
		func() (Scheme, error) { return NewTwoPartition(QT, 3, rnd(102)) },
		func() (Scheme, error) { return NewTwoPartition(TT, 3, rnd(103)) },
		func() (Scheme, error) { return NewTwoPartition(PT, 3, rnd(104)) },
		func() (Scheme, error) { return NewLossHomogenized([]float64{0.05}, rnd(105)) },
		func() (Scheme, error) { return NewRandomMultiTree(3, rnd(106)) },
	}
	for _, build := range builders {
		s, err := build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		t.Run(s.Name(), func(t *testing.T) {
			h := newHarness(t, s)
			next := 1
			var present []int
			detRng := keycrypt.NewDeterministicReader(999)
			rb := func(n int) int {
				var b [1]byte
				detRng.Read(b[:])
				return int(b[0]) % n
			}
			for epoch := 0; epoch < 30; epoch++ {
				b := Batch{}
				nJoin := rb(5)
				for i := 0; i < nJoin; i++ {
					meta := MemberMeta{
						LossRate:  []float64{0.02, 0.2, -1}[rb(3)],
						LongLived: rb(2) == 0,
					}
					b.Joins = append(b.Joins, Join{ID: keytree.MemberID(next), Meta: meta})
					present = append(present, next)
					next++
				}
				nLeave := rb(4)
				for i := 0; i < nLeave && len(present) > 0; i++ {
					idx := rb(len(present))
					// Skip members joining in this same batch.
					joiningNow := false
					for _, j := range b.Joins {
						if j.ID == keytree.MemberID(present[idx]) {
							joiningNow = true
							break
						}
					}
					if joiningNow {
						continue
					}
					b.Leaves = append(b.Leaves, keytree.MemberID(present[idx]))
					present = append(present[:idx], present[idx+1:]...)
				}
				h.process(b)
				if s.Size() != len(present) {
					t.Fatalf("epoch %d: Size=%d, want %d", epoch, s.Size(), len(present))
				}
			}
		})
	}
}

// keytreeID shortens MemberID conversions in tests.
func keytreeID(i int) keytree.MemberID { return keytree.MemberID(i) }

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

var updateRoutes = flag.Bool("update", false, "rewrite testdata/routes.golden")

// routesOf returns every member's ascending item indexes into
// rk.AllItems(), for the given candidate members.
func routesOf(rk *Rekey, members []keytree.MemberID) map[keytree.MemberID][]uint32 {
	routes := NewRoutes(rk)
	out := make(map[keytree.MemberID][]uint32, len(members))
	for _, m := range members {
		out[m] = routes.Route(m)
	}
	return out
}

// goldenLog accumulates one line per epoch: the route digest over
// (epoch, member, index list) for every candidate member, and the payload
// digest over the stream layout and every item's wire encoding.
type goldenLog struct {
	t     *testing.T
	lines []string
	// unrouted counts, per scenario, items no candidate member routes to.
	unrouted map[string]int
}

func (g *goldenLog) record(scenario string, s Scheme, rk *Rekey, leavers []keytree.MemberID) {
	g.t.Helper()
	members := append(s.Members(), leavers...)
	slices.Sort(members)
	members = slices.Compact(members)
	routes := routesOf(rk, members)

	items := rk.AllItems()
	routed := make([]bool, len(items))
	rh := sha256.New()
	var buf []byte
	for _, m := range members {
		idx := routes[m]
		for _, v := range idx {
			routed[v] = true
		}
		buf = binary.BigEndian.AppendUint64(buf[:0], rk.Epoch)
		buf = binary.BigEndian.AppendUint64(buf, uint64(m))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(idx)))
		for _, v := range idx {
			buf = binary.BigEndian.AppendUint32(buf, v)
		}
		rh.Write(buf)
	}

	ph := sha256.New()
	for _, st := range rk.Streams {
		fmt.Fprintf(ph, "%s/%d/%d;", st.Label, len(st.Items), len(st.JoinerItems))
	}
	for _, it := range items {
		enc, err := wire.AppendRekeyItem(nil, it)
		if err != nil {
			g.t.Fatalf("%s epoch %d: encoding item: %v", scenario, rk.Epoch, err)
		}
		ph.Write(enc)
	}
	unrouted := 0
	for _, ok := range routed {
		if !ok {
			unrouted++
		}
	}
	g.unrouted[scenario] += unrouted
	g.lines = append(g.lines, fmt.Sprintf("%s epoch=%d members=%d items=%d unrouted=%d routes=%s payload=%s",
		scenario, rk.Epoch, len(members), len(items), unrouted,
		hex.EncodeToString(rh.Sum(nil))[:32], hex.EncodeToString(ph.Sum(nil))[:32]))
}

// churner drives seeded membership churn against one scheme.
type churner struct {
	t    *testing.T
	name string
	s    Scheme
	rng  *rand.Rand
	next keytree.MemberID
	log  *goldenLog
	meta func(r *rand.Rand) MemberMeta
}

func newChurner(t *testing.T, log *goldenLog, name string, s Scheme, seed uint64, initial int) *churner {
	c := &churner{t: t, name: name, s: s, rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), next: 1, log: log}
	c.batch(initial, 0)
	return c
}

func (c *churner) metaFor() MemberMeta {
	if c.meta != nil {
		return c.meta(c.rng)
	}
	return MemberMeta{LossRate: -1}
}

// batch processes one batch of the given numbers of fresh joins and
// random departures.
func (c *churner) batch(joins, leaves int) *Rekey {
	c.t.Helper()
	b := Batch{}
	for i := 0; i < joins; i++ {
		b.Joins = append(b.Joins, Join{ID: c.next, Meta: c.metaFor()})
		c.next++
	}
	members := c.s.Members()
	for i := 0; i < leaves && len(members) > 0; i++ {
		k := c.rng.IntN(len(members))
		b.Leaves = append(b.Leaves, members[k])
		members = slices.Delete(members, k, k+1)
	}
	return c.apply(b)
}

// blockLeave departs a run of n members adjacent in ID order — which
// hollows out neighbouring subtrees and provokes rebalance moves.
func (c *churner) blockLeave(joins, n int) *Rekey {
	c.t.Helper()
	b := Batch{}
	for i := 0; i < joins; i++ {
		b.Joins = append(b.Joins, Join{ID: c.next, Meta: c.metaFor()})
		c.next++
	}
	members := c.s.Members()
	start := c.rng.IntN(len(members) - n)
	b.Leaves = append(b.Leaves, members[start:start+n]...)
	return c.apply(b)
}

func (c *churner) apply(b Batch) *Rekey {
	c.t.Helper()
	rk, err := c.s.ProcessBatch(b)
	if err != nil {
		c.t.Fatalf("%s: ProcessBatch: %v", c.name, err)
	}
	c.log.record(c.name, c.s, rk, b.Leaves)
	return rk
}

// churn runs epochs of random churn, including a joins-only and a
// leaves-only epoch.
func (c *churner) churn(epochs int) {
	c.t.Helper()
	for e := 0; e < epochs; e++ {
		switch e % 5 {
		case 1:
			c.batch(1+c.rng.IntN(6), 0)
		case 3:
			c.batch(0, 1+c.rng.IntN(6))
		default:
			c.batch(c.rng.IntN(8), c.rng.IntN(8))
		}
	}
}

func (c *churner) rotate() {
	c.t.Helper()
	rot, ok := c.s.(Rotator)
	if !ok {
		c.t.Fatalf("%s: scheme cannot rotate", c.name)
	}
	rk, err := rot.Rotate()
	if err != nil {
		c.t.Fatalf("%s: Rotate: %v", c.name, err)
	}
	c.log.record(c.name, c.s, rk, nil)
}

// TestRouteGolden pins every member's per-epoch item index set, and every
// payload byte, for seeded churn across all schemes: routing refactors
// must reproduce both exactly. Regenerate with
// `go test ./internal/core -run TestRouteGolden -args -update` only when a
// payload change is intended.
func TestRouteGolden(t *testing.T) {
	log := &goldenLog{t: t, unrouted: make(map[string]int)}
	det := func(seed uint64) Option { return WithRand(keycrypt.NewDeterministicReader(seed)) }
	mk := func(s Scheme, err error) Scheme {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	one := newChurner(t, log, "onetree", mk(NewOneTree(det(1), WithDegree(4))), 1, 300)
	one.churn(10)
	one.rotate()
	one.churn(3)

	// A drift-eager planner relocates members; the scenario insists on at
	// least one move epoch.
	planned := mk(NewOneTree(det(2), WithDegree(2),
		WithPlanner(keytree.PlannerConfig{DriftFactor: 1.01, MaxMovesPerBatch: 4, MoveWrapSlack: 6})))
	pl := newChurner(t, log, "onetree-planner", planned, 2, 200)
	for e := 0; e < 30; e++ {
		pl.blockLeave(pl.rng.IntN(4), 2+pl.rng.IntN(10))
	}
	pl.churn(6)
	st := planned.Stats().Planner
	if st.Moves == 0 || st.PlannedBatches == 0 {
		t.Fatalf("planner scenario made %d moves over %d planned batches; want both > 0", st.Moves, st.PlannedBatches)
	}

	for _, tc := range []struct {
		name string
		mode PartitionMode
		k    int
	}{{"tt", TT, 2}, {"tt-k1", TT, 1}, {"qt", QT, 2}, {"pt", PT, 2}} {
		s := mk(NewTwoPartition(tc.mode, tc.k, det(3), WithDegree(4)))
		c := newChurner(t, log, tc.name, s, 3, 150)
		c.meta = func(r *rand.Rand) MemberMeta { return MemberMeta{LossRate: -1, LongLived: r.IntN(3) == 0} }
		before := s.(*TwoPartition).LPartitionSize()
		c.churn(8)
		if tc.mode != PT && s.(*TwoPartition).LPartitionSize() <= before {
			t.Fatalf("%s: no S→L migration happened", tc.name)
		}
		c.rotate()
		c.churn(2)
	}
	// With K=1 the S partition holds only the batch's joiners, yet a
	// departure still emits the S-root group-key wrap: an item no member
	// needs. It must route to nobody.
	if log.unrouted["tt-k1"] == 0 {
		t.Fatal("tt-k1: no S-root group item went unrouted; the empty-receiver case is not covered")
	}

	lossy := func(r *rand.Rand) MemberMeta { return MemberMeta{LossRate: []float64{0.01, 0.02, 0.2}[r.IntN(3)]} }
	lh := newChurner(t, log, "loss-homogenized", mk(NewLossHomogenized([]float64{0.05}, det(4), WithDegree(4))), 4, 0)
	lh.meta = lossy
	lh.batch(200, 0)
	lh.churn(8)
	rm := newChurner(t, log, "random-multitree", mk(NewRandomMultiTree(3, det(5), WithDegree(3))), 5, 200)
	rm.churn(8)
	rm.rotate()
	nv := newChurner(t, log, "naive", mk(NewNaive(det(6))), 6, 60)
	nv.churn(8)
	nv.rotate()

	// Migrate bridge epoch: OneTree → TT, then churn on the destination.
	src := newChurner(t, log, "migrate-src", mk(NewOneTree(det(7), WithDegree(4))), 7, 120)
	src.churn(3)
	dst := mk(NewTwoPartition(TT, 2, det(8), WithDegree(4), WithKeyIDBase(1<<50)))
	rk, err := Migrate(src.s, dst, nil, det(9))
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	log.record("migrate-bridge", dst, rk, nil)
	after := &churner{t: t, name: "migrate-dst", s: dst, rng: src.rng, next: src.next, log: log}
	after.churn(4)

	got := []byte(fmt.Sprintln(joinLines(log.lines)))
	path := filepath.Join("testdata", "routes.golden")
	if *updateRoutes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("routes diverged from the golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("routes golden has %d lines, run produced %d", len(wl), len(gl))
	}
}

func joinLines(lines []string) string {
	var b bytes.Buffer
	for i, l := range lines {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(l)
	}
	return b.String()
}

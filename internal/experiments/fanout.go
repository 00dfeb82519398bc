package experiments

import (
	"crypto/ed25519"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// FanoutResult quantifies one group size's broadcast cost per member for a
// churn rekey: the legacy path hands every member the full signed payload,
// the sparse path hands each member only its Merkle-authenticated slice.
type FanoutResult struct {
	GroupSize int `json:"group_size"`
	Churn     int `json:"churn_per_batch"`
	Items     int `json:"items"`
	// FullBytesPerMember is the signed full-payload frame size — what every
	// member receives on the legacy path regardless of what it needs.
	FullBytesPerMember float64 `json:"full_bytes_per_member"`
	// SparseBytesPerMember is the mean sparse frame size across the whole
	// membership, heartbeat frames for unaddressed members included.
	SparseBytesPerMember float64 `json:"sparse_bytes_per_member"`
	// Reduction is FullBytesPerMember / SparseBytesPerMember.
	Reduction float64 `json:"reduction"`
}

// measureFanout builds a one-tree group of the given size, runs one churn
// batch, and prices both delivery paths from the exact wire encodings. No
// signing or hashing throughput is involved — this is a byte-accounting
// measurement, so it is deterministic for a given seed.
func measureFanout(cfg PerfConfig, size int) (FanoutResult, error) {
	s, err := core.NewOneTree(core.WithDegree(4), core.WithRand(keycrypt.NewDeterministicReader(cfg.Seed)))
	if err != nil {
		return FanoutResult{}, err
	}
	prime := core.Batch{}
	for i := 1; i <= size; i++ {
		prime.Joins = append(prime.Joins, core.Join{ID: keytree.MemberID(i)})
	}
	if _, err := s.ProcessBatch(prime); err != nil {
		return FanoutResult{}, err
	}
	b := core.Batch{}
	members := s.Members()
	next := keytree.MemberID(size + 1)
	for j := 0; j < cfg.Churn; j++ {
		slot := (j * 997) % len(members)
		b.Leaves = append(b.Leaves, members[slot])
		b.Joins = append(b.Joins, core.Join{ID: next})
		members[slot] = next
		next++
	}
	rk, err := s.ProcessBatch(b)
	if err != nil {
		return FanoutResult{}, err
	}
	items := rk.AllItems()

	full, err := wire.EncodeRekey(1, items)
	if err != nil {
		return FanoutResult{}, err
	}
	fullBytes := float64(len(full) + ed25519.SignatureSize)

	var itemBuf []byte
	for _, it := range items {
		if itemBuf, err = wire.AppendRekeyItem(itemBuf, it); err != nil {
			return FanoutResult{}, err
		}
	}
	tree := wire.NewItemTree(len(items), func(i int) []byte {
		return itemBuf[i*wire.RekeyItemSize : (i+1)*wire.RekeyItemSize]
	})
	routes := core.NewRoutes(rk)
	total := 0
	for _, m := range s.Members() {
		total += wire.SparseFrameSize(tree, routes.Route(m))
	}
	mean := float64(total) / float64(size)

	return FanoutResult{
		GroupSize:            size,
		Churn:                cfg.Churn,
		Items:                len(items),
		FullBytesPerMember:   fullBytes,
		SparseBytesPerMember: mean,
		Reduction:            fullBytes / mean,
	}, nil
}

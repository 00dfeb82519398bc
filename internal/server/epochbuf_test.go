package server

import (
	"bytes"
	"crypto/ed25519"
	"slices"
	"testing"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// buildEpochBuffer processes a churn batch on a fresh scheme and seals the
// resulting rekey, returning everything the assertions need.
func buildEpochBuffer(t *testing.T, seed uint64) (*epochBuffer, core.Scheme, *core.Rekey, ed25519.PublicKey) {
	t.Helper()
	sc := newScheme(t, seed)
	var b core.Batch
	for i := 1; i <= 48; i++ {
		b.Joins = append(b.Joins, core.Join{ID: keytree.MemberID(i), Meta: core.MemberMeta{LossRate: 0.01}})
	}
	if _, err := sc.ProcessBatch(b); err != nil {
		t.Fatal(err)
	}
	rekey, err := sc.ProcessBatch(core.Batch{Leaves: []keytree.MemberID{5, 17}})
	if err != nil {
		t.Fatal(err)
	}
	pub, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(seed + 1))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := newEpochBuffer(priv, rekey)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eb.release)
	return eb, sc, rekey, pub
}

// sparseFrame assembles the complete sparse payload for idx in one buffer:
// the head the writer emits, then the item bytes it sends as ranges.
func sparseFrame(eb *epochBuffer, idx []uint32) []byte {
	frame := wire.AppendSparseHead(nil, eb.epoch, eb.tree, eb.root, eb.rootSig, idx)
	for _, v := range idx {
		frame = append(frame, eb.item(int(v))...)
	}
	return frame
}

// TestEpochBufferSparseFrames checks that every member's assembled sparse
// frame decodes, verifies, and carries exactly the items of
// rekey.AllItems() wrapped under keys the member holds (the batch has no
// joiners to exclude) — and that sparseSize predicted the frame size.
func TestEpochBufferSparseFrames(t *testing.T) {
	eb, sc, rekey, pub := buildEpochBuffer(t, 50)
	items := rekey.AllItems()
	if eb.nItems != len(items) {
		t.Fatalf("nItems=%d, want %d", eb.nItems, len(items))
	}
	covered := 0
	for _, m := range sc.Members() {
		keys, err := sc.MemberKeys(m)
		if err != nil {
			t.Fatal(err)
		}
		var idx []uint32
		for i, it := range items {
			for _, k := range keys {
				if k.ID == it.Wrapped.WrapperID {
					idx = append(idx, uint32(i))
				}
			}
		}
		got := eb.indexesFor(m)
		if !slices.Equal(got, idx) {
			t.Fatalf("member %d: indexes %v, want %v", m, got, idx)
		}
		if len(idx) == 0 {
			continue
		}
		frame := sparseFrame(eb, got)
		if n := eb.sparseSize(got); n != len(frame) {
			t.Fatalf("member %d: sparseSize=%d, frame is %d bytes", m, n, len(frame))
		}
		sr, err := wire.DecodeSparseRekey(pub, frame)
		if err != nil {
			t.Fatalf("member %d: DecodeSparseRekey: %v", m, err)
		}
		if sr.Epoch != rekey.Epoch || len(sr.Items) != len(idx) {
			t.Fatalf("member %d: decoded epoch=%d items=%d, want epoch=%d items=%d",
				m, sr.Epoch, len(sr.Items), rekey.Epoch, len(idx))
		}
		if !slices.Equal(sr.Indexes, idx) {
			t.Fatalf("member %d: frame indexes %v, want %v", m, sr.Indexes, idx)
		}
		for i, v := range sr.Indexes {
			got, want := sr.Items[i], items[v]
			if got.Kind != want.Kind || got.Level != want.Level ||
				!bytes.Equal(got.Wrapped.Marshal(), want.Wrapped.Marshal()) {
				t.Fatalf("member %d: item %d differs from source item %d", m, i, v)
			}
		}
		covered++
	}
	if covered == 0 {
		t.Fatal("rekey addressed nobody")
	}
}

// TestEpochBufferItemRanges checks that vectored ranges coalesce runs of
// consecutive indexes and reproduce exactly the item bytes.
func TestEpochBufferItemRanges(t *testing.T) {
	eb, _, _, _ := buildEpochBuffer(t, 51)
	if eb.nItems < 8 {
		t.Skipf("epoch too small (%d items)", eb.nItems)
	}
	idx := []uint32{0, 1, 2, 4, 6, 7}
	ranges := eb.itemRanges(nil, idx)
	if len(ranges) != 3 {
		t.Fatalf("%d ranges for %v, want 3 (runs coalesce)", len(ranges), idx)
	}
	var flat []byte
	for _, r := range ranges {
		flat = append(flat, r...)
	}
	var want []byte
	for _, v := range idx {
		want = append(want, eb.item(int(v))...)
	}
	if !bytes.Equal(flat, want) {
		t.Fatal("coalesced ranges do not reproduce the item bytes")
	}
}

// TestEpochBufferRefcount exercises the retain/release protocol: the item
// buffer survives until the last reference and is recycled after it.
func TestEpochBufferRefcount(t *testing.T) {
	sc := newScheme(t, 52)
	var b core.Batch
	for i := 1; i <= 8; i++ {
		b.Joins = append(b.Joins, core.Join{ID: keytree.MemberID(i), Meta: core.MemberMeta{LossRate: -1}})
	}
	rekey, err := sc.ProcessBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	_, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(53))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := newEpochBuffer(priv, rekey)
	if err != nil {
		t.Fatal(err)
	}
	eb.retain()
	eb.release()
	if eb.itemBuf == nil {
		t.Fatal("item buffer freed while a reference remained")
	}
	eb.release()
	if eb.itemBuf != nil {
		t.Fatal("item buffer not recycled after the last release")
	}
}

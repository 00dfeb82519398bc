package server

import (
	"crypto/ed25519"
	"sync"
	"sync/atomic"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// Encode-once sparse fan-out: a rekey of I items is never sent whole —
// each member needs only its O(log N) path. The items are encoded exactly
// once into one immutable buffer, the Merkle root over them is signed
// once, and each client's queue gets a tiny {buffer, indexes} descriptor.
// The writer goroutines then assemble per-member sparse frames outside the
// server lock, emitting item bytes as vectored ranges over the shared
// buffer — no per-member payload copies, no per-member signatures.
//
// The buffer is refcounted (enqueue retains, the writer releases after the
// frame is written or dropped) so its item buffer can return to a pool the
// moment the last in-flight frame is done, instead of churning the GC on
// every epoch at scale.

// epochBuffer is one epoch's rekey payload, sealed once, shared by every
// outbound frame of that epoch. Immutable after newEpochBuffer except for
// the refcount.
type epochBuffer struct {
	epoch   uint64
	nItems  int
	itemBuf []byte // nItems × wire.RekeyItemSize concatenated encodings
	tree    *wire.ItemTree
	root    [wire.HashSize]byte
	rootSig []byte
	// routes answers which items a member needs, from its key path.
	routes *core.Routes

	refs atomic.Int64
}

// itemBufPool recycles epoch item buffers between epochs.
var itemBufPool = sync.Pool{}

// newEpochBuffer seals one rekey: encode every item once, build and sign
// the item tree, and index the items for routing. The caller owns the
// initial reference.
func newEpochBuffer(priv ed25519.PrivateKey, rekey *core.Rekey) (*epochBuffer, error) {
	items := rekey.AllItems()
	eb := &epochBuffer{epoch: rekey.Epoch, nItems: len(items)}

	buf, _ := itemBufPool.Get().([]byte)
	buf = buf[:0]
	var err error
	for _, it := range items {
		if buf, err = wire.AppendRekeyItem(buf, it); err != nil {
			return nil, err
		}
	}
	eb.itemBuf = buf
	eb.tree = wire.NewItemTree(len(items), func(i int) []byte {
		return buf[i*wire.RekeyItemSize : (i+1)*wire.RekeyItemSize]
	})
	eb.root = eb.tree.Root()
	eb.rootSig = wire.SignSparse(priv, rekey.Epoch, uint32(len(items)), eb.root)
	eb.routes = core.NewRoutes(rekey)
	eb.refs.Store(1)
	return eb, nil
}

// item returns item i's encoded bytes as a view into the shared buffer.
func (eb *epochBuffer) item(i int) []byte {
	return eb.itemBuf[i*wire.RekeyItemSize : (i+1)*wire.RekeyItemSize]
}

// indexesFor returns the ascending item indexes member m needs this epoch
// (nil when the epoch carries nothing for m — its frame is the signed
// heartbeat). Routes read m's current key path from the scheme, so
// callers hold s.mu, and the epoch must still be the scheme's newest.
func (eb *epochBuffer) indexesFor(m keytree.MemberID) []uint32 {
	return eb.routes.Route(m)
}

// sparseSize is the exact MsgRekeySparse payload size for idx, computable
// under the server lock without hashing (broadcast byte accounting).
func (eb *epochBuffer) sparseSize(idx []uint32) int {
	return wire.SparseFrameSize(eb.tree, idx)
}

// retain takes one additional reference.
func (eb *epochBuffer) retain() { eb.refs.Add(1) }

// release drops one reference; the last one returns the item buffer to the
// pool. The tree (which aliases nothing) is left to the GC.
func (eb *epochBuffer) release() {
	if eb.refs.Add(-1) != 0 {
		return
	}
	if cap(eb.itemBuf) > 0 {
		itemBufPool.Put(eb.itemBuf[:0]) //nolint:staticcheck // slice, not pointer: the backing array is what we recycle
	}
	eb.itemBuf = nil
}

// itemRanges appends the byte ranges of the (ascending) item indexes as
// views into the shared item buffer, coalescing runs of consecutive
// indexes into single ranges so the vectored write stays short.
func (eb *epochBuffer) itemRanges(dst [][]byte, idx []uint32) [][]byte {
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && idx[j] == idx[j-1]+1 {
			j++
		}
		dst = append(dst, eb.itemBuf[int(idx[i])*wire.RekeyItemSize:int(idx[j-1]+1)*wire.RekeyItemSize])
		i = j
	}
	return dst
}

package wire

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"groupkey/internal/keytree"
)

// Sparse rekey fan-out: the server encodes an epoch's items exactly once,
// builds the item tree (merkle.go), signs the root, and sends each member
// only the items on its key-tree path:
//
//	epoch(8) ‖ nLeaves(4) ‖ root(32) ‖ rootSig(64) ‖ k(4) ‖ k×leafIdx(4)
//	‖ nProof(2) ‖ nProof×hash(32) ‖ k×item(RekeyItemSize)
//
// A k == 0 frame is the epoch heartbeat: nothing to deliver, but the
// signed root still proves the epoch happened. The same signed root also
// anchors the datagram plane's digest (MsgRekeyDigest) and the TCP repair
// path (MsgRekeyPull → MsgRekeySparse).

// sparseDomain separates the root signature from every other signed blob.
const sparseDomain = "groupkey/sparse-rekey/v1"

// sparseFixedSize is everything before the index list.
const sparseFixedSize = 8 + 4 + HashSize + ed25519.SignatureSize + 4

// MaxSparseIndexes bounds k in one sparse frame.
const MaxSparseIndexes = (MaxFrameSize - sparseFixedSize) / (4 + RekeyItemSize)

// SparseSigningMessage is the byte string the epoch root signature covers:
// domain ‖ epoch ‖ nLeaves ‖ root. Binding the leaf count prevents a
// truncated tree passing as a smaller epoch.
func SparseSigningMessage(epoch uint64, nLeaves uint32, root [HashSize]byte) []byte {
	out := make([]byte, 0, len(sparseDomain)+12+HashSize)
	out = append(out, sparseDomain...)
	out = binary.BigEndian.AppendUint64(out, epoch)
	out = binary.BigEndian.AppendUint32(out, nLeaves)
	return append(out, root[:]...)
}

// SignSparse signs the epoch's item-tree root: one signature
// authenticates every member's sparse frame.
func SignSparse(priv ed25519.PrivateKey, epoch uint64, nLeaves uint32, root [HashSize]byte) []byte {
	return ed25519.Sign(priv, SparseSigningMessage(epoch, nLeaves, root))
}

// HashRekeyItem returns the item-tree leaf hash of one RekeyItemSize-byte
// item encoding — datagram receivers use it to cross-check collected items
// against the digest root.
func HashRekeyItem(item []byte) []byte {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(item)
	return h.Sum(nil)
}

// AppendSparseHead appends everything before the item bytes — fixed
// header, index list and multiproof — to buf. The caller supplies the
// items themselves (typically as vectored ranges over the epoch's shared
// item buffer) immediately after.
func AppendSparseHead(buf []byte, epoch uint64, tree *ItemTree, root [HashSize]byte, rootSig []byte, idx []uint32) []byte {
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(tree.Leaves()))
	buf = append(buf, root[:]...)
	buf = append(buf, rootSig...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(idx)))
	for _, v := range idx {
		buf = binary.BigEndian.AppendUint32(buf, v)
	}
	// Reserve the proof count, fill after the walk.
	at := len(buf)
	buf = append(buf, 0, 0)
	buf, n := tree.AppendProof(buf, idx)
	binary.BigEndian.PutUint16(buf[at:], uint16(n))
	return buf
}

// SparseFrameSize returns the exact MsgRekeySparse payload size for idx —
// head plus item bytes — without building anything.
func SparseFrameSize(tree *ItemTree, idx []uint32) int {
	return sparseFixedSize + 4*len(idx) + 2 + tree.ProofSize(idx) + len(idx)*RekeyItemSize
}

// EncodeSparseRekey builds one complete sparse frame (head + item bytes).
// The server's hot path assembles frames from pooled buffers instead; this
// is the convenience form for repair replies and tests. items holds the
// epoch's full concatenated item encodings (RekeyItemSize each).
func EncodeSparseRekey(epoch uint64, tree *ItemTree, root [HashSize]byte, rootSig []byte, idx []uint32, items []byte) []byte {
	buf := make([]byte, 0, SparseFrameSize(tree, idx))
	buf = AppendSparseHead(buf, epoch, tree, root, rootSig, idx)
	for _, v := range idx {
		buf = append(buf, items[int(v)*RekeyItemSize:(int(v)+1)*RekeyItemSize]...)
	}
	return buf
}

// SparseRekey is a decoded, verified sparse frame.
type SparseRekey struct {
	Epoch   uint64
	NLeaves uint32
	Root    [HashSize]byte
	Indexes []uint32
	Items   []keytree.Item
}

// DecodeSparseRekey parses a MsgRekeySparse payload, verifies the root
// signature against the server key and the items against the root's
// multiproof, and returns the carried items. Signature or proof failure is
// ErrBadSignature; structural damage is ErrMalformed.
func DecodeSparseRekey(pub ed25519.PublicKey, b []byte) (SparseRekey, error) {
	var sr SparseRekey
	if len(b) < sparseFixedSize+2 {
		return sr, fmt.Errorf("%w: sparse rekey %d bytes", ErrMalformed, len(b))
	}
	sr.Epoch = binary.BigEndian.Uint64(b[0:8])
	sr.NLeaves = binary.BigEndian.Uint32(b[8:12])
	copy(sr.Root[:], b[12:12+HashSize])
	sig := b[12+HashSize : 12+HashSize+ed25519.SignatureSize]
	k := int(binary.BigEndian.Uint32(b[sparseFixedSize-4 : sparseFixedSize]))
	if k > MaxSparseIndexes || k > int(sr.NLeaves) {
		return sr, fmt.Errorf("%w: %d sparse indexes", ErrMalformed, k)
	}
	rest := b[sparseFixedSize:]
	if len(rest) < 4*k+2 {
		return sr, fmt.Errorf("%w: sparse index list truncated", ErrMalformed)
	}
	idx := make([]uint32, k)
	for i := range idx {
		idx[i] = binary.BigEndian.Uint32(rest[4*i:])
	}
	rest = rest[4*k:]
	nProof := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if len(rest) != nProof*HashSize+k*RekeyItemSize {
		return sr, fmt.Errorf("%w: sparse frame body %d bytes", ErrMalformed, len(rest))
	}
	proof, itemBytes := rest[:nProof*HashSize], rest[nProof*HashSize:]

	if len(pub) != ed25519.PublicKeySize ||
		!ed25519.Verify(pub, SparseSigningMessage(sr.Epoch, sr.NLeaves, sr.Root), sig) {
		return sr, ErrBadSignature
	}
	if k == 0 {
		if nProof != 0 {
			return sr, fmt.Errorf("%w: proof on empty sparse frame", ErrMalformed)
		}
		return sr, nil
	}
	leafHashes := make([][]byte, k)
	for i := 0; i < k; i++ {
		leafHashes[i] = HashRekeyItem(itemBytes[i*RekeyItemSize : (i+1)*RekeyItemSize])
	}
	if err := VerifyItemProof(int(sr.NLeaves), idx, leafHashes, proof, sr.Root); err != nil {
		return sr, err
	}
	sr.Indexes = idx
	sr.Items = make([]keytree.Item, 0, k)
	for i := 0; i < k; i++ {
		it, err := DecodeRekeyItem(itemBytes[i*RekeyItemSize : (i+1)*RekeyItemSize])
		if err != nil {
			return sr, fmt.Errorf("wire: sparse item %d: %w", i, err)
		}
		sr.Items = append(sr.Items, it)
	}
	return sr, nil
}

// DigestBlock describes one FEC block of the datagram plane a member must
// collect: K source shards of which Shards (source + proactive parity)
// were transmitted.
type DigestBlock struct {
	Block  uint16
	K      uint8
	Shards uint8
}

// RekeyDigest is a MsgRekeyDigest payload: the epoch announcement for a
// member whose keys travel over UDP. Root and signature make the epoch's
// existence unforgeable; the index and block lists are advisory (a forged
// list cannot plant keys — datagrams verify individually — only delay the
// member into the authoritative TCP pull).
type RekeyDigest struct {
	Epoch     uint64
	NLeaves   uint32
	Root      [HashSize]byte
	Sig       []byte // over SparseSigningMessage
	ShardSize uint16 // canonical padded shard bytes, for RS reconstruction
	Indexes   []uint32
	Blocks    []DigestBlock
}

// Encode serializes the digest.
func (d RekeyDigest) Encode() []byte {
	out := make([]byte, 0, sparseFixedSize+2+4*len(d.Indexes)+2+4*len(d.Blocks))
	out = binary.BigEndian.AppendUint64(out, d.Epoch)
	out = binary.BigEndian.AppendUint32(out, d.NLeaves)
	out = append(out, d.Root[:]...)
	out = append(out, d.Sig...)
	out = binary.BigEndian.AppendUint16(out, d.ShardSize)
	out = binary.BigEndian.AppendUint32(out, uint32(len(d.Indexes)))
	for _, v := range d.Indexes {
		out = binary.BigEndian.AppendUint32(out, v)
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(d.Blocks)))
	for _, b := range d.Blocks {
		out = binary.BigEndian.AppendUint16(out, b.Block)
		out = append(out, b.K, b.Shards)
	}
	return out
}

// DecodeRekeyDigest parses and signature-verifies a MsgRekeyDigest payload.
func DecodeRekeyDigest(pub ed25519.PublicKey, b []byte) (RekeyDigest, error) {
	var d RekeyDigest
	const fixed = 8 + 4 + HashSize + ed25519.SignatureSize + 2 + 4
	if len(b) < fixed+2 {
		return d, fmt.Errorf("%w: rekey digest %d bytes", ErrMalformed, len(b))
	}
	d.Epoch = binary.BigEndian.Uint64(b[0:8])
	d.NLeaves = binary.BigEndian.Uint32(b[8:12])
	copy(d.Root[:], b[12:12+HashSize])
	d.Sig = append([]byte(nil), b[12+HashSize:12+HashSize+ed25519.SignatureSize]...)
	d.ShardSize = binary.BigEndian.Uint16(b[fixed-6 : fixed-4])
	k := int(binary.BigEndian.Uint32(b[fixed-4 : fixed]))
	if k > MaxSparseIndexes || k > int(d.NLeaves) {
		return d, fmt.Errorf("%w: %d digest indexes", ErrMalformed, k)
	}
	rest := b[fixed:]
	if len(rest) < 4*k+2 {
		return d, fmt.Errorf("%w: digest index list truncated", ErrMalformed)
	}
	d.Indexes = make([]uint32, k)
	prev := -1
	for i := range d.Indexes {
		d.Indexes[i] = binary.BigEndian.Uint32(rest[4*i:])
		if int(d.Indexes[i]) >= int(d.NLeaves) || int(d.Indexes[i]) <= prev {
			return d, fmt.Errorf("%w: digest index %d out of order or range", ErrMalformed, d.Indexes[i])
		}
		prev = int(d.Indexes[i])
	}
	rest = rest[4*k:]
	nb := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if len(rest) != 4*nb {
		return d, fmt.Errorf("%w: digest block list %d bytes", ErrMalformed, len(rest))
	}
	d.Blocks = make([]DigestBlock, nb)
	for i := range d.Blocks {
		d.Blocks[i] = DigestBlock{
			Block:  binary.BigEndian.Uint16(rest[4*i:]),
			K:      rest[4*i+2],
			Shards: rest[4*i+3],
		}
		if d.Blocks[i].K == 0 {
			return d, fmt.Errorf("%w: digest block %d has k=0", ErrMalformed, i)
		}
	}
	if len(pub) != ed25519.PublicKeySize ||
		!ed25519.Verify(pub, SparseSigningMessage(d.Epoch, d.NLeaves, d.Root), d.Sig) {
		return d, ErrBadSignature
	}
	return d, nil
}

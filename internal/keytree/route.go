package keytree

import (
	"slices"

	"groupkey/internal/keycrypt"
)

// Routing: every member holds exactly the keys on its own path, so the
// items it needs are the multicast items wrapped under one of those keys
// (less the batch's exclusion set) plus the items addressed to it. A
// Router indexes one payload's items by wrapping key ID and by addressee
// once, in O(items); routing a member then costs O(path length) lookups,
// and nobody ever materializes a receiver list.

// Router is one payload's routing table. It is immutable once built, and
// routes against whatever key paths the caller supplies.
type Router struct {
	items    []Item
	byKey    map[keycrypt.KeyID][]uint32
	byMember map[MemberID][]uint32
}

// NewRouter indexes items (typically a payload's AllItems order: the
// route indexes into exactly this slice).
func NewRouter(items []Item) *Router {
	r := &Router{items: items, byKey: make(map[keycrypt.KeyID][]uint32, len(items))}
	for i, it := range items {
		if it.To != 0 {
			if r.byMember == nil {
				r.byMember = make(map[MemberID][]uint32)
			}
			r.byMember[it.To] = append(r.byMember[it.To], uint32(i))
			continue
		}
		r.byKey[it.Wrapped.WrapperID] = append(r.byKey[it.Wrapped.WrapperID], uint32(i))
	}
	return r
}

// Route appends to dst the ascending indexes of the items member m needs,
// given path: the IDs of every key m currently holds.
func (r *Router) Route(dst []uint32, m MemberID, path []keycrypt.KeyID) []uint32 {
	start := len(dst)
	for _, id := range path {
		for _, i := range r.byKey[id] {
			if !r.items[i].Exclude[m] {
				dst = append(dst, i)
			}
		}
	}
	dst = append(dst, r.byMember[m]...)
	slices.Sort(dst[start:])
	return dst
}

// PathIDs appends the IDs of the keys member m holds — its leaf key first,
// the root last — to dst. ok is false when m is not in the tree.
func (t *Tree) PathIDs(dst []keycrypt.KeyID, m MemberID) (ids []keycrypt.KeyID, ok bool) {
	leaf, ok := t.leaves[m]
	if !ok {
		return dst, false
	}
	for n := leaf; n != nil; n = n.parent {
		dst = append(dst, n.key.ID)
	}
	return dst, true
}

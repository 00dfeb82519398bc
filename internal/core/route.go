package core

import (
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// Routes is one rekey's routing table: which of its items each member
// needs. Building it indexes the items by wrapping key in O(items);
// routing a member then walks only that member's key path (see
// keytree.Router), so nothing per-epoch is O(N) unless every member is
// routed. It is not safe for concurrent use.
type Routes struct {
	rekey  *Rekey
	router *keytree.Router
	path   []keycrypt.KeyID // scratch for the member's key path
}

// sourceScheme is a scheme of this package, as a rekey remembers it:
// Routes reads members' key paths from it, and its newest epoch tells
// whether those paths still belong to the rekey.
type sourceScheme interface {
	Scheme
	currentEpoch() uint64
}

// NewRoutes builds the routing table of a rekey.
func NewRoutes(r *Rekey) *Routes {
	return &Routes{rekey: r, router: keytree.NewRouter(r.AllItems())}
}

// Route returns the ascending indexes into the rekey's AllItems of the
// items member m needs — nil when it needs none or is not a member. It
// reads m's key path from the scheme that produced the rekey, so it only
// answers while that rekey is the scheme's newest: once the scheme has
// rekeyed again the paths no longer match the items, and Route returns
// nil for everyone.
func (rt *Routes) Route(m keytree.MemberID) []uint32 {
	if rt.rekey.scheme.currentEpoch() != rt.rekey.Epoch {
		return nil
	}
	path, ok := rt.rekey.scheme.PathIDs(rt.path[:0], m)
	rt.path = path
	if !ok {
		return nil
	}
	return rt.router.Route(nil, m, path)
}

// StreamRoute restricts Route to stream i's multicast items, indexed into
// Streams[i].Items: the per-stream view a transport simulation delivers.
func (rt *Routes) StreamRoute(i int) func(keytree.MemberID) []uint32 {
	lo := 0
	for _, st := range rt.rekey.Streams[:i] {
		lo += len(st.Items)
	}
	hi := lo + len(rt.rekey.Streams[i].Items)
	return func(m keytree.MemberID) []uint32 {
		var out []uint32
		for _, v := range rt.Route(m) {
			if int(v) >= lo && int(v) < hi {
				out = append(out, v-uint32(lo))
			}
		}
		return out
	}
}

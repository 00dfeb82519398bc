package keytree

import (
	"fmt"
	"sort"

	"groupkey/internal/keycrypt"
)

// This file implements One-way Function Trees (OFT, Balenson–McGrew–
// Sherman), the alternative key-tree construction the paper names in
// Section 2.1.1 as equally amenable to its optimizations. Unlike LKH,
// interior keys are not chosen by the server: every interior key is
// *computed* as
//
//	k(v) = Mix(Blind(k(left)), Blind(k(right)))
//
// where Blind is a one-way function. A member stores its own leaf secret
// plus the blinded keys of the siblings along its path, and computes every
// path key — including the group key at the root — itself. A membership
// change therefore costs ONE blinded key per updated tree level (delivered
// to the sibling subtree), half of binary LKH's two.
//
// Versioning: a leaf's version bumps on every refresh; an interior node's
// version is the sum of its children's versions, so the server and every
// member derive identical (id, version, material) triples independently.

// OFTPathEntry describes one level of a member's path: the parent node
// reached, the sibling whose blinded key the member must hold, and the
// sibling's position (Mix is positional).
type OFTPathEntry struct {
	Parent        keycrypt.KeyID
	Sibling       keycrypt.KeyID
	SiblingOnLeft bool
}

// OFTPayload is the output of one batched OFT rekey.
type OFTPayload struct {
	// Items carry new blinded keys encrypted under subtree keys, leaf
	// refreshes encrypted under previous leaf secrets, and joiner
	// bootstrap blinds encrypted under joiner leaf secrets. The Item
	// format is shared with LKH so the reliable rekey transports deliver
	// OFT payloads unchanged.
	Items []Item
	// Paths re-synchronizes the path structure of members whose position
	// in the tree changed (joiners, split partners, members under spliced
	// or re-parented subtrees).
	Paths map[MemberID][]OFTPathEntry
}

// KeyCount returns the number of encrypted keys in the payload — the
// bandwidth metric comparable with LKH's Payload counts.
func (p *OFTPayload) KeyCount() int { return len(p.Items) }

type oftNode struct {
	id          keycrypt.KeyID
	parent      *oftNode
	left, right *oftNode
	secret      keycrypt.Key // leaf: stored; interior: Mix of children blinds
	member      MemberID     // nonzero iff leaf
	leaves      int
}

func (n *oftNode) isLeaf() bool { return n.left == nil && n.right == nil }

func (n *oftNode) sibling() *oftNode {
	if n.parent == nil {
		return nil
	}
	if n.parent.left == n {
		return n.parent.right
	}
	return n.parent.left
}

// OFT is a binary one-way function tree maintained by the key server. It
// is not safe for concurrent use.
type OFT struct {
	root   *oftNode
	leaves map[MemberID]*oftNode
	gen    keycrypt.Generator
	nextID keycrypt.KeyID
	stats  Stats
}

// NewOFT creates an empty one-way function tree.
func NewOFT(opts ...Option) (*OFT, error) {
	// Reuse the Tree options for entropy/ID-space injection.
	carrier := &Tree{nextID: 1}
	for _, o := range opts {
		o(carrier)
	}
	return &OFT{
		leaves: make(map[MemberID]*oftNode),
		gen:    carrier.gen,
		nextID: carrier.nextID,
	}, nil
}

// Size returns the number of members.
func (t *OFT) Size() int { return len(t.leaves) }

// Contains reports membership.
func (t *OFT) Contains(m MemberID) bool {
	_, ok := t.leaves[m]
	return ok
}

// Members lists members ascending.
func (t *OFT) Members() []MemberID {
	out := make([]MemberID, 0, len(t.leaves))
	for m := range t.leaves {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GroupKey returns the current root (group) key.
func (t *OFT) GroupKey() (keycrypt.Key, error) {
	if t.root == nil {
		return keycrypt.Key{}, ErrEmptyTree
	}
	return t.root.secret, nil
}

// Height returns the longest root-to-leaf edge count (-1 when empty).
func (t *OFT) Height() int { return oftHeight(t.root) }

func oftHeight(n *oftNode) int {
	if n == nil {
		return -1
	}
	h := -1
	if l := oftHeight(n.left); l > h {
		h = l
	}
	if r := oftHeight(n.right); r > h {
		h = r
	}
	return h + 1
}

// LeafSecret returns a member's current leaf secret (handed out over the
// registration channel).
func (t *OFT) LeafSecret(m MemberID) (keycrypt.Key, error) {
	leaf, ok := t.leaves[m]
	if !ok {
		return keycrypt.Key{}, fmt.Errorf("%w: %d", ErrMemberUnknown, m)
	}
	return leaf.secret, nil
}

// PathOf returns the member's current path description, bottom-up.
func (t *OFT) PathOf(m MemberID) ([]OFTPathEntry, error) {
	leaf, ok := t.leaves[m]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrMemberUnknown, m)
	}
	return t.pathEntries(leaf), nil
}

func (t *OFT) pathEntries(leaf *oftNode) []OFTPathEntry {
	var out []OFTPathEntry
	for n := leaf; n.parent != nil; n = n.parent {
		sib := n.sibling()
		out = append(out, OFTPathEntry{
			Parent:        n.parent.id,
			Sibling:       sib.id,
			SiblingOnLeft: n.parent.left == sib,
		})
	}
	return out
}

// freshSecret mints a new leaf secret in a fresh ID slot.
func (t *OFT) freshSecret() (keycrypt.Key, error) {
	id := t.nextID
	t.nextID++
	k, err := t.gen.New(id, 0)
	if err != nil {
		return keycrypt.Key{}, fmt.Errorf("%w: %v", ErrExhaustedEntropy, err)
	}
	t.stats.KeysRefreshed++
	return k, nil
}

// recompute recalculates an interior node's secret from its children. The
// version is the sum of the children's versions, reproducible by members.
func (t *OFT) recompute(n *oftNode) {
	version := n.left.secret.Version + n.right.secret.Version
	n.secret = keycrypt.Mix(n.id, version,
		keycrypt.Blind(n.left.secret), keycrypt.Blind(n.right.secret))
	t.stats.KeysRefreshed++
}

// membersUnder collects member IDs in a subtree, minus exclusions.
func membersUnder(n *oftNode, exclude map[MemberID]bool) []MemberID {
	var out []MemberID
	var walk func(x *oftNode)
	walk = func(x *oftNode) {
		if x == nil {
			return
		}
		if x.member != 0 && !exclude[x.member] {
			out = append(out, x.member)
		}
		walk(x.left)
		walk(x.right)
	}
	walk(n)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (t *OFT) depth(n *oftNode) int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Rekey applies a batch of joins and leaves and emits the OFT payload.
// Like the LKH Rekey, joiners fill the leaf slots vacated by departures
// first (the J=L regime), surplus joins split leaves, surplus departures
// splice their parents out.
//
// Security actions per event:
//   - replaced leaf: new member, fresh secret (registration channel);
//   - surplus departure: the leaf "nearest" the vacated position (the
//     shallowest leaf of the promoted sibling subtree) gets a fresh
//     secret, delivered wrapped under its previous secret — this is what
//     locks the departed member out of every recomputed path key;
//   - surplus join: the split partner's leaf is refreshed the same way
//     (locking the joiner out of past keys), and the joiner bootstraps
//     from its own fresh secret.
//
// After the leaf changes, every affected interior key is recomputed
// bottom-up and each updated node's new *blinded* key is multicast
// encrypted under its sibling's subtree key.
func (t *OFT) Rekey(b Batch) (*OFTPayload, error) {
	if err := t.validateOFTBatch(b); err != nil {
		return nil, err
	}
	p := &OFTPayload{Paths: make(map[MemberID][]OFTPathEntry)}
	joiners := make(map[MemberID]bool, len(b.Joins))
	for _, m := range b.Joins {
		joiners[m] = true
	}

	// changedLeaves tracks leaves with fresh secrets; structuralDirty
	// marks subtrees whose members need path re-sync.
	changedLeaves := make(map[*oftNode]bool)
	var structuralDirty []*oftNode

	refreshLeaf := func(leaf *oftNode, deliver bool) error {
		old := leaf.secret
		next, err := t.gen.New(old.ID, old.Version+1)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrExhaustedEntropy, err)
		}
		t.stats.KeysRefreshed++
		leaf.secret = next
		changedLeaves[leaf] = true
		if deliver {
			w, err := keycrypt.Wrap(next, old, t.gen.Rand)
			if err != nil {
				return err
			}
			p.Items = append(p.Items, Item{Wrapped: w, Kind: LeafRefresh, Level: t.depth(leaf), To: leaf.member})
		}
		return nil
	}

	// Phase 1: replacements. The leaf keeps its key-slot ID (so surviving
	// members' path entries stay valid) but gets fresh material at the
	// next version — the new member's registration secret.
	pairs := min(len(b.Joins), len(b.Leaves))
	for i := 0; i < pairs; i++ {
		leaf := t.leaves[b.Leaves[i]]
		delete(t.leaves, b.Leaves[i])
		fresh, err := t.gen.New(leaf.secret.ID, leaf.secret.Version+1)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrExhaustedEntropy, err)
		}
		t.stats.KeysRefreshed++
		leaf.secret = fresh
		leaf.member = b.Joins[i]
		t.leaves[b.Joins[i]] = leaf
		changedLeaves[leaf] = true
		t.stats.Joins++
		t.stats.Departures++
	}

	// Phase 2: surplus departures — structural splices only; the lockout
	// refreshes run after all structural changes so they never land on a
	// leaf that is itself departing in this batch.
	var promotedSubtrees []*oftNode
	for _, m := range b.Leaves[pairs:] {
		leaf := t.leaves[m]
		delete(t.leaves, m)
		t.stats.Departures++
		parent := leaf.parent
		if parent == nil {
			t.root = nil
			continue
		}
		promoted := leaf.sibling()
		grand := parent.parent
		promoted.parent = grand
		if grand == nil {
			t.root = promoted
		} else if grand.left == parent {
			grand.left = promoted
		} else {
			grand.right = promoted
		}
		// Fully detach the removed nodes: later phases test reachability
		// through parent pointers.
		parent.parent, parent.left, parent.right = nil, nil, nil
		leaf.parent = nil
		for g := grand; g != nil; g = g.parent {
			g.leaves--
		}
		// The promoted subtree's depths changed, and the subtree that was
		// parent's "aunt" has a new sibling id at that level.
		if grand != nil {
			structuralDirty = append(structuralDirty, grand)
		} else {
			structuralDirty = append(structuralDirty, promoted)
		}
		promotedSubtrees = append(promotedSubtrees, promoted)
	}

	// Phase 3: surplus joins — splits.
	var splitPartners, joinerLeaves []*oftNode
	for _, m := range b.Joins[pairs:] {
		fresh, err := t.freshSecret()
		if err != nil {
			return nil, err
		}
		leaf := &oftNode{id: fresh.ID, secret: fresh, member: m, leaves: 1}
		t.leaves[m] = leaf
		joinerLeaves = append(joinerLeaves, leaf)
		t.stats.Joins++
		if t.root == nil {
			t.root = leaf
			continue
		}
		// Descend into the lighter child down to a leaf, then split.
		n := t.root
		for !n.isLeaf() {
			if n.left.leaves <= n.right.leaves {
				n = n.left
			} else {
				n = n.right
			}
		}
		interiorID := t.nextID
		t.nextID++
		interior := &oftNode{
			id:     interiorID,
			parent: n.parent,
			left:   n,
			right:  leaf,
			leaves: n.leaves + 1,
		}
		if n.parent == nil {
			t.root = interior
		} else if n.parent.left == n {
			n.parent.left = interior
		} else {
			n.parent.right = interior
		}
		n.parent = interior
		leaf.parent = interior
		for g := interior.parent; g != nil; g = g.parent {
			g.leaves++
		}
		// The split partner's old sibling id is replaced by the new
		// interior node for every member under the split point's parent.
		if interior.parent != nil {
			structuralDirty = append(structuralDirty, interior.parent)
		} else {
			structuralDirty = append(structuralDirty, interior)
		}
		splitPartners = append(splitPartners, n)
	}

	// Phase 3b: security refreshes, now that the structure is final.
	// Split partners are refreshed so joiners cannot backtrack; each
	// promoted subtree gets one refreshed leaf so the departed member is
	// locked out of every recomputed path key — unless the subtree already
	// contains a leaf with fresh material from this batch.
	for _, n := range splitPartners {
		if !changedLeaves[n] {
			if err := refreshLeaf(n, true); err != nil {
				return nil, err
			}
		}
	}
	for _, promoted := range promotedSubtrees {
		if !t.attachedOFT(promoted) {
			continue // a later splice in this batch detached or replaced it
		}
		if hasChangedLeafUnder(promoted, changedLeaves) {
			continue
		}
		if err := refreshLeaf(shallowestLeaf(promoted), true); err != nil {
			return nil, err
		}
	}

	if t.root == nil {
		t.stats.Rekeys++
		return p, nil
	}

	// Phase 4: recompute affected interior secrets bottom-up, collecting
	// updated nodes in depth order (deepest first).
	dirty := make(map[*oftNode]bool)
	for leaf := range changedLeaves {
		if !t.attachedOFT(leaf) {
			continue
		}
		for n := leaf.parent; n != nil; n = n.parent {
			dirty[n] = true
		}
	}
	for _, n := range structuralDirty {
		if !t.attachedOFT(n) {
			continue
		}
		for x := n; x != nil; x = x.parent {
			if !x.isLeaf() {
				dirty[x] = true
			}
		}
	}
	order := make([]*oftNode, 0, len(dirty))
	for n := range dirty {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := t.depth(order[i]), t.depth(order[j])
		if di != dj {
			return di > dj
		}
		return order[i].id < order[j].id
	})
	for _, n := range order {
		t.recompute(n)
	}

	// Phase 5: emit blinded-key updates. Every changed node (leaf or
	// interior, except the root) has a new blind its sibling subtree
	// needs, encrypted under the sibling's current secret.
	// A blind reaches nobody when every leaf under the sibling is a batch
	// joiner (joiners get their blinds through JoinerWrap paths).
	joinersUnder := make(map[*oftNode]int, len(joiners))
	for m := range joiners {
		for n := t.leaves[m]; n != nil; n = n.parent {
			joinersUnder[n]++
		}
	}
	emitted := 0
	emitBlind := func(n *oftNode) error {
		sib := n.sibling()
		if sib == nil || sib.leaves == joinersUnder[sib] {
			return nil
		}
		w, err := keycrypt.Wrap(keycrypt.Blind(n.secret), sib.secret, t.gen.Rand)
		if err != nil {
			return err
		}
		p.Items = append(p.Items, Item{Wrapped: w, Kind: BlindWrap, Level: t.depth(n), Exclude: joiners})
		emitted++
		return nil
	}
	for leaf := range changedLeaves {
		if !t.attachedOFT(leaf) {
			continue
		}
		if err := emitBlind(leaf); err != nil {
			return nil, err
		}
	}
	// New joiner leaves have blinds their split partners (and, transitively,
	// everyone else via the interior recomputation) depend on.
	for _, leaf := range joinerLeaves {
		if !t.attachedOFT(leaf) || changedLeaves[leaf] {
			continue
		}
		if err := emitBlind(leaf); err != nil {
			return nil, err
		}
	}
	for _, n := range order {
		if err := emitBlind(n); err != nil {
			return nil, err
		}
	}

	// Phase 6: path re-sync for members under structurally changed nodes,
	// and bootstrap for joiners: the full set of path sibling blinds
	// wrapped under the joiner's leaf secret.
	resync := make(map[MemberID]bool)
	for _, n := range structuralDirty {
		if !t.attachedOFT(n) {
			continue
		}
		for _, m := range membersUnder(n, nil) {
			resync[m] = true
		}
	}
	for m := range resync {
		p.Paths[m] = t.pathEntries(t.leaves[m])
	}
	joinerIDs := make([]MemberID, 0, len(joiners))
	for m := range joiners {
		joinerIDs = append(joinerIDs, m)
	}
	sort.Slice(joinerIDs, func(i, j int) bool { return joinerIDs[i] < joinerIDs[j] })
	for _, m := range joinerIDs {
		leaf := t.leaves[m]
		p.Paths[m] = t.pathEntries(leaf)
		for n := leaf; n.parent != nil; n = n.parent {
			sib := n.sibling()
			w, err := keycrypt.Wrap(keycrypt.Blind(sib.secret), leaf.secret, t.gen.Rand)
			if err != nil {
				return nil, err
			}
			p.Items = append(p.Items, Item{Wrapped: w, Kind: JoinerWrap, Level: t.depth(sib), To: m})
		}
	}

	t.stats.KeysWrapped += len(p.Items)
	t.stats.Rekeys++
	return p, nil
}

// MulticastKeyCount counts the payload items addressed to existing members
// (blind updates and leaf refreshes), excluding joiner bootstrap — the
// metric comparable to LKH's Payload.MulticastKeyCount.
func (p *OFTPayload) MulticastKeyCount() int {
	n := 0
	for _, it := range p.Items {
		if it.Kind != JoinerWrap {
			n++
		}
	}
	return n
}

func (t *OFT) validateOFTBatch(b Batch) error {
	seen := make(map[MemberID]bool, len(b.Joins)+len(b.Leaves))
	for _, m := range b.Joins {
		if m == 0 {
			return ErrZeroMember
		}
		if seen[m] {
			return fmt.Errorf("%w: member %d listed twice", ErrBatchConflict, m)
		}
		seen[m] = true
		if t.Contains(m) {
			return fmt.Errorf("%w: %d", ErrMemberExists, m)
		}
	}
	for _, m := range b.Leaves {
		if m == 0 {
			return ErrZeroMember
		}
		if seen[m] {
			return fmt.Errorf("%w: member %d both joins and leaves", ErrBatchConflict, m)
		}
		seen[m] = true
		if !t.Contains(m) {
			return fmt.Errorf("%w: %d", ErrMemberUnknown, m)
		}
	}
	return nil
}

func (t *OFT) attachedOFT(n *oftNode) bool {
	for ; n != nil; n = n.parent {
		if n == t.root {
			return true
		}
	}
	return false
}

// hasChangedLeafUnder reports whether the subtree contains a leaf whose
// secret was already refreshed in this batch.
func hasChangedLeafUnder(n *oftNode, changed map[*oftNode]bool) bool {
	if n == nil {
		return false
	}
	if n.isLeaf() {
		return changed[n]
	}
	return hasChangedLeafUnder(n.left, changed) || hasChangedLeafUnder(n.right, changed)
}

// shallowestLeaf returns the leaf of minimum depth in a subtree.
func shallowestLeaf(n *oftNode) *oftNode {
	type qe struct{ n *oftNode }
	queue := []qe{{n}}
	for len(queue) > 0 {
		head := queue[0].n
		queue = queue[1:]
		if head.isLeaf() {
			return head
		}
		queue = append(queue, qe{head.left}, qe{head.right})
	}
	panic("keytree: subtree without leaves")
}

package core

import (
	"fmt"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// Migrate moves an entire group from one scheme to another — the
// reorganization step of the Section 3.4 adaptive strategy ("the key
// server can choose the best scheme to use. And this process can be
// repeated periodically").
//
// Every member of `from` is admitted into `to` (which must be empty) in
// one batch, carrying over its metadata. Because members cannot be handed
// new individual keys out of band mid-session, each member's new
// individual key is delivered wrapped under its previous one, and the rest
// of its new path arrives through the destination scheme's regular joiner
// items. The returned Rekey is therefore fully decryptable by every
// current member using only keys it already holds — no registration
// round-trip.
//
// The cost is Θ(N·log N) keys — this is exactly why the adaptive advisor
// applies hysteresis before recommending a switch.
//
// REQUIREMENT: build the destination with a key-ID base disjoint from the
// source's (WithKeyIDBase) — members index keys by ID, and a reused ID
// from the old scheme would shadow the new key in their stores.
func Migrate(from, to Scheme, metaOf func(keytree.MemberID) MemberMeta, rng ...Option) (*Rekey, error) {
	if to.Size() != 0 {
		return nil, fmt.Errorf("%w: destination scheme already has %d members", ErrBadConfig, to.Size())
	}
	members := from.Members()
	if len(members) == 0 {
		return nil, fmt.Errorf("%w: source group is empty", ErrEmptyGroup)
	}

	// Capture each member's current individual key before touching state.
	oldKey := make(map[keytree.MemberID]keycrypt.Key, len(members))
	for _, m := range members {
		keys, err := from.MemberKeys(m)
		if err != nil {
			return nil, fmt.Errorf("core: migrate: reading keys of %d: %w", m, err)
		}
		if len(keys) == 0 {
			return nil, fmt.Errorf("core: migrate: member %d holds no keys", m)
		}
		oldKey[m] = keys[0] // leaf/individual key first, by Scheme contract
	}

	batch := Batch{}
	for _, m := range members {
		meta := MemberMeta{LossRate: -1}
		if metaOf != nil {
			meta = metaOf(m)
		}
		batch.Joins = append(batch.Joins, Join{ID: m, Meta: meta})
	}
	rekey, err := to.ProcessBatch(batch)
	if err != nil {
		return nil, fmt.Errorf("core: migrate: admitting members: %w", err)
	}

	// Bridge the registration gap: the new individual key of each member,
	// wrapped under its old one. Options carry the entropy source for
	// deterministic tests.
	o, err := buildOptions(rng)
	if err != nil {
		return nil, err
	}
	bridge := Stream{Label: "migration-bridge", Audience: to.Members}
	for _, m := range members {
		welcome, ok := rekey.Welcome[m]
		if !ok {
			return nil, fmt.Errorf("core: migrate: no welcome key for %d", m)
		}
		w, err := keycrypt.Wrap(welcome, oldKey[m], o.rand)
		if err != nil {
			return nil, err
		}
		bridge.JoinerItems = append(bridge.JoinerItems, keytree.Item{Wrapped: w, Kind: keytree.JoinerWrap, To: m})
	}
	rekey.Streams = append(rekey.Streams, bridge)
	// The welcome keys were delivered in-band; the registration channel is
	// not involved in a migration.
	rekey.Welcome = nil
	return rekey, nil
}

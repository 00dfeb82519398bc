package keytree

import (
	"crypto/rand"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"groupkey/internal/keycrypt"
)

// This file is the parallel rekey emission engine: the replacement for the
// serial Phase 5/6 of Rekey (kept verbatim in emitLegacy as the oracle).
//
// The engine splits emission into two steps:
//
//  1. Plan (single-threaded): sort the dirty nodes by precomputed depth,
//     build every Item's metadata (kind, level, addressing) and draw one
//     nonce per wrap from the tree's entropy source in the exact order the
//     serial emitter would. Items name no receivers: a multicast item is
//     for the holders of its wrapping key minus the batch's joiners (see
//     Router), so planning is O(dirty nodes), not O(members).
//  2. Emit (parallel): fan the AES-GCM seals out over a bounded worker
//     pool, each job writing into its pre-assigned payload slot through
//     the tree's cached-key-schedule Wrapper.
//
// Because nonces and slots are fixed during planning, the payload is
// byte-for-byte identical to the serial emitter's for any worker count.

// wrapJob is one planned AES-GCM seal: everything a worker needs, with the
// destination slot fixed before the fan-out.
type wrapJob struct {
	payload keycrypt.Key
	wrapper keycrypt.Key
	nonce   [keycrypt.NonceSize]byte
	dst     *keycrypt.WrappedKey
}

// minParallelJobs is the fan-out threshold: below it, goroutine start-up
// costs more than the AES work it would spread.
const minParallelJobs = 32

// emitPlanned runs the plan/emit engine over the dirty set.
func (t *Tree) emitPlanned(dirty map[*Node]*dirtyInfo, joiners map[MemberID]bool) (*Payload, error) {
	nodes, depths := sortDirtyNodes(dirty)
	rng := t.gen.Rand
	if rng == nil {
		rng = rand.Reader
	}
	nonces := nonceDrawer{rng: rng}

	// Upper bounds on wrap counts (skips only shrink them), so the item and
	// job slices are allocated once instead of doubling their way up.
	itemCap := 0
	for _, n := range nodes {
		if info := dirty[n]; info.departure || info.isNew {
			itemCap += len(n.children)
		} else {
			itemCap++
		}
	}
	joinerCap := 0
	for m := range joiners {
		joinerCap += t.leaves[m].Depth()
	}

	p := &Payload{Items: make([]Item, 0, itemCap)}
	if joinerCap > 0 {
		p.JoinerItems = make([]Item, 0, joinerCap)
	}
	reaches := t.reachCounter(joiners)
	itemJobs := make([]wrapJob, 0, itemCap)
	joinerJobs := make([]wrapJob, 0, joinerCap)

	// Phase 5 plan: child and old-key wraps, deepest nodes first.
	for i, n := range nodes {
		info := dirty[n]
		level := depths[i]
		if info.departure || info.isNew {
			for _, c := range n.children {
				if !reaches(c) {
					// Every member under c is a joiner of this batch and
					// receives the key through its JoinerWrap path instead;
					// multicasting this wrap would carry zero information.
					continue
				}
				nonce, err := nonces.next()
				if err != nil {
					return nil, err
				}
				p.Items = append(p.Items, Item{Kind: ChildWrap, Level: level, Exclude: joiners})
				itemJobs = append(itemJobs, wrapJob{payload: n.key, wrapper: c.key, nonce: nonce})
			}
		} else {
			if !reaches(n) {
				continue
			}
			nonce, err := nonces.next()
			if err != nil {
				return nil, err
			}
			p.Items = append(p.Items, Item{Kind: OldKeyWrap, Level: level, Exclude: joiners})
			itemJobs = append(itemJobs, wrapJob{payload: n.key, wrapper: info.oldKey, nonce: nonce})
		}
	}

	// Phase 6 plan: joiner path deliveries, ascending member order.
	joinerIDs := make([]MemberID, 0, len(joiners))
	for m := range joiners {
		joinerIDs = append(joinerIDs, m)
	}
	slices.Sort(joinerIDs)
	for _, m := range joinerIDs {
		leaf := t.leaves[m]
		level := leaf.Depth()
		for n := leaf.parent; n != nil; n = n.parent {
			level--
			nonce, err := nonces.next()
			if err != nil {
				return nil, err
			}
			p.JoinerItems = append(p.JoinerItems, Item{Kind: JoinerWrap, Level: level, To: m})
			joinerJobs = append(joinerJobs, wrapJob{payload: n.key, wrapper: leaf.key, nonce: nonce})
		}
	}

	// Both slices are final: pin destination slots 1:1, then emit.
	for i := range itemJobs {
		itemJobs[i].dst = &p.Items[i].Wrapped
	}
	for i := range joinerJobs {
		joinerJobs[i].dst = &p.JoinerItems[i].Wrapped
	}
	jobs := itemJobs
	if len(jobs) == 0 {
		jobs = joinerJobs
	} else if len(joinerJobs) > 0 {
		jobs = append(jobs, joinerJobs...)
	}
	if err := t.runWrapJobs(jobs); err != nil {
		return nil, err
	}
	return p, nil
}

// nonceDrawer reads wrap nonces in canonical planning order — so emission
// scheduling cannot perturb payload bytes — through one reusable buffer: a
// per-draw stack array would escape into the io.Reader call and cost an
// allocation per wrap.
type nonceDrawer struct {
	rng io.Reader
	buf [keycrypt.NonceSize]byte
}

func (d *nonceDrawer) next() ([keycrypt.NonceSize]byte, error) {
	if _, err := io.ReadFull(d.rng, d.buf[:]); err != nil {
		return d.buf, fmt.Errorf("keytree: drawing wrap nonce: %w", err)
	}
	return d.buf, nil
}

// sortDirtyNodes orders the dirty set deepest-first (ties by key ID) with
// each node's depth computed once up front, instead of two O(depth) Depth()
// walks inside every sort comparison.
func sortDirtyNodes(dirty map[*Node]*dirtyInfo) ([]*Node, []int) {
	type nodeDepth struct {
		n *Node
		d int
	}
	byDepth := make([]nodeDepth, 0, len(dirty))
	for n := range dirty {
		byDepth = append(byDepth, nodeDepth{n: n, d: n.Depth()})
	}
	sort.Slice(byDepth, func(i, j int) bool {
		if byDepth[i].d != byDepth[j].d {
			return byDepth[i].d > byDepth[j].d
		}
		return byDepth[i].n.key.ID < byDepth[j].n.key.ID
	})
	nodes := make([]*Node, len(byDepth))
	depths := make([]int, len(byDepth))
	for i, nd := range byDepth {
		nodes[i] = nd.n
		depths[i] = nd.d
	}
	return nodes, depths
}

// runWrapJobs executes the planned seals, inline or across the worker
// pool. Workers only read the tree's Wrapper cache and write disjoint
// pre-assigned slots, so scheduling cannot affect payload bytes.
func (t *Tree) runWrapJobs(jobs []wrapJob) error {
	if len(jobs) == 0 {
		return nil
	}
	workers := t.WrapWorkers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 || len(jobs) < minParallelJobs {
		for i := range jobs {
			if err := t.runWrapJob(&jobs[i]); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		failed   atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || failed.Load() {
					return
				}
				if err := t.runWrapJob(&jobs[i]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func (t *Tree) runWrapJob(j *wrapJob) error {
	w, err := t.wrapper.WrapNonce(j.payload, j.wrapper, j.nonce)
	if err != nil {
		return fmt.Errorf("keytree: wrapping %s under %s: %w", j.payload.ID, j.wrapper.ID, err)
	}
	*j.dst = w
	return nil
}

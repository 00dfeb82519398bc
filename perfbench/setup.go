package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/metrics"
	"groupkey/internal/server"
	"groupkey/internal/store"
	"groupkey/internal/vfs"
	"groupkey/internal/wire"
	"groupkey/internal/workload"
)

// Paper parameters (Table 1) and keyserverd's store defaults.
const (
	rekeyPeriod   = 60.0 // Tp, seconds of trace per batch
	sPeriodK      = 10   // K, periods a TT member stays in S
	treeDegree    = 4    // d
	snapshotEvery = 64   // keyserverd -snapshot-every
	// probeIDBase is the first member ID the server assigns; offline
	// members take IDs from the trace, far below it.
	probeIDBase keytree.MemberID = 1 << 40
	// probeChanges bounds the joins, and the leaves, the probes add to one
	// batch.
	probeChanges = 2
)

const (
	dialTimeout = 60 * time.Second
	waitTimeout = 30 * time.Second
)

// joinFrameLen and leaveFrameLen are the sizes of a probe's join and
// leave frames (legacy header, as group-0 clients send them).
var (
	joinFrameLen  = int64(5 + len(wire.JoinRequest{Caps: wire.CapSparse}.Encode()))
	leaveFrameLen = int64(5)
)

// workloadSpec is one named benchmark workload.
type workloadSpec struct {
	name    string
	groups  int
	members int // offline members per group
	scheme  store.SchemeKind
	// churn makes offline members follow the seeded paper two-class
	// trace; without it only the probes change membership.
	churn bool
	// epochsPerSecond is the nominal measured rate on a 2-core x86-64
	// container; --seconds times it fixes a run's epoch count.
	epochsPerSecond float64
}

var workloads = []workloadSpec{
	{name: "paper-tt-64k", groups: 1, members: 65536, scheme: store.SchemeTT, churn: true, epochsPerSecond: 4.8},
	{name: "revoke-onetree-100k", groups: 1, members: 100000, scheme: store.SchemeOneTree, epochsPerSecond: 13},
	{name: "groups-64x1k", groups: 64, members: 1024, scheme: store.SchemeTT, churn: true, epochsPerSecond: 11.5},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// period is one trace period's offline churn in compact form.
type period struct{ joins, leaves []uint32 }

// batch expands the period into a batch with room for spare more joins
// and leaves, so the probes' changes can be appended without a copy.
func (p period) batch(spare int) core.Batch {
	b := core.Batch{
		Joins:  make([]core.Join, len(p.joins), len(p.joins)+spare),
		Leaves: make([]keytree.MemberID, len(p.leaves), len(p.leaves)+spare),
	}
	for i, id := range p.joins {
		b.Joins[i] = core.Join{ID: keytree.MemberID(id)}
	}
	for i, id := range p.leaves {
		b.Leaves[i] = keytree.MemberID(id)
	}
	return b
}

// inputs are a run's generated inputs: one offline churn trace per group.
// Offline members 1..members are present at time zero.
type inputs struct {
	members int
	warmup  int        // trace periods replayed through the scheme at set-up
	traces  [][]period // per group; nil without churn
}

// groupSeed derives group g's seed from the run seed.
func groupSeed(seed uint64, g int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(g)*0xbf58476d1ce4e5b9 + 1
}

// genInputs builds every group's trace, long enough for the warm-up, the
// set-up's admitting batch and epochs driven epochs.
func genInputs(w workloadSpec, seed uint64, epochs int) (*inputs, error) {
	in := &inputs{members: w.members}
	if !w.churn {
		return in, nil
	}
	in.warmup = sPeriodK
	periods := in.warmup + 1 + epochs
	d := workload.PaperDefault()
	horizon := float64(periods) * rekeyPeriod
	for g := 0; g < w.groups; g++ {
		sess, err := workload.NewSession(workload.Config{
			Seed:        groupSeed(seed, g),
			ArrivalRate: workload.ArrivalRateForGroupSize(float64(w.members), d),
			Durations:   d,
		})
		if err != nil {
			return nil, err
		}
		sess.Prime(w.members)
		batches := workload.PeriodBatches(sess.Events(horizon), rekeyPeriod, horizon)
		trace := make([]period, len(batches))
		for i, b := range batches {
			trace[i] = period{joins: compact(b.Joins), leaves: compact(b.Leaves)}
		}
		in.traces = append(in.traces, trace)
	}
	return in, nil
}

func compact(ids []keytree.MemberID) []uint32 {
	out := make([]uint32, len(ids))
	for i, id := range ids {
		if id > math.MaxUint32 {
			panic("perfbench: trace member ID overflows uint32")
		}
		out[i] = uint32(id)
	}
	return out
}

// probe is one connected member the benchmark checks: the client plus the
// server side of its connection.
type probe struct {
	c    *server.Client
	conn *tapConn
	// applied receives (probe A only) every epoch the client applies.
	applied chan appliedAt
}

type appliedAt struct {
	epoch uint64
	at    time.Time
}

// waitApplied returns when probe A applied epoch.
func (p *probe) waitApplied(epoch uint64) (time.Time, error) {
	t := time.NewTimer(waitTimeout)
	defer t.Stop()
	for {
		select {
		case a := <-p.applied:
			if a.epoch == epoch {
				return a.at, nil
			}
			if a.epoch > epoch {
				return time.Time{}, fmt.Errorf("probe skipped epoch %d (applied %d)", epoch, a.epoch)
			}
		case <-t.C:
			return time.Time{}, fmt.Errorf("probe did not apply epoch %d: %w", epoch, errTimeout)
		}
	}
}

// joining is one probe join in flight.
type joining struct {
	start time.Time
	conn  *tapConn
	res   chan joinResult
}

type joinResult struct {
	c        *server.Client
	err      error
	dialed   time.Time // Dial returned
	admitted time.Time // the admitting epoch was applied
}

// system is one built key server with its probes.
type system struct {
	spec    workloadSpec
	in      *inputs
	fs      *vfs.Mem // the stores' disk
	stores  []*store.Store
	taps    []*groupTap
	servers []*server.Server
	reg     *server.Registry // nil when one group is served alone
	ln      *tapListener
	addr    string
	cursor  int // next trace period

	a, b    *probe
	pending []*joining       // joins whose goroutine has not been collected
	nextID  keytree.MemberID // the ID the next probe must receive
	// prevKey and prevWraps are group 0's previous group key and the
	// keys its previous payload carried, for the backward-secrecy check.
	prevKey   keycrypt.Key
	prevWraps []keycrypt.WrappedKey

	// groupMetrics instrument the registry's servers during traced rounds.
	groupMetrics []*server.Metrics
	tracer       *metrics.RekeyTracer
}

// build creates, primes and serves the workload's groups and admits both
// probes: the span setup_s times.
func build(w workloadSpec, in *inputs, seed uint64, cfgKind store.SchemeKind) (_ *system, err error) {
	s := &system{spec: w, in: in, cursor: in.warmup, nextID: probeIDBase}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.fs = vfs.NewMem(nil)
	cfg := store.SchemeConfig{Kind: cfgKind, Degree: treeDegree}
	if cfgKind == store.SchemeTT {
		cfg.SPeriodK = sPeriodK
	}
	for g := 0; g < w.groups; g++ {
		st, err := store.Open(fmt.Sprintf("/state/%d", g), store.Options{
			Fsync:   store.FsyncAlways,
			FS:      s.fs,
			Entropy: keycrypt.NewDeterministicReader(groupSeed(seed, g)),
		})
		if err != nil {
			return nil, err
		}
		s.stores = append(s.stores, st)
		if _, err := st.Recover(); err != nil {
			return nil, err
		}
		sc, err := st.Create(cfg)
		if err != nil {
			return nil, err
		}
		if err := prime(st, sc, in, g); err != nil {
			return nil, err
		}
		tap := &groupTap{}
		srv := server.NewWithKey(&tapScheme{Scheme: sc, tap: tap}, nil, st.SigningKey())
		srv.Persist(&tapStore{st: st, tap: tap}, snapshotEvery)
		srv.SetNextID(probeIDBase)
		s.taps = append(s.taps, tap)
		s.servers = append(s.servers, srv)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.ln = newTapListener(ln)
	s.addr = ln.Addr().String()
	if w.groups == 1 {
		s.servers[0].Serve(s.ln)
	} else {
		s.reg = server.NewRegistry()
		reg := metrics.NewRegistry()
		// Room for a traced round's events, one per group, with slack.
		s.tracer = metrics.NewRekeyTracer(4 * w.groups)
		root := server.NewMetrics(reg, s.tracer)
		for g, srv := range s.servers {
			if err := s.reg.Add(wire.GroupID(g), srv); err != nil {
				return nil, err
			}
			s.groupMetrics = append(s.groupMetrics, root.ForGroup(wire.GroupID(g)))
		}
		s.reg.Serve(s.ln)
	}

	// Admit probe A, then probe B, in one batch. Each join is registered
	// before the next dial so the IDs are assigned in a fixed order.
	ja, err := s.startJoin()
	if err != nil {
		return nil, err
	}
	jb, err := s.startJoin()
	if err != nil {
		return nil, err
	}
	if !s.stage() {
		return nil, errors.New("trace too short for set-up")
	}
	epoch, _, _, err := s.rekey()
	if err != nil {
		return nil, err
	}
	if s.a, _, err = s.finishJoin(ja, epoch); err != nil {
		return nil, err
	}
	if s.b, _, err = s.finishJoin(jb, epoch); err != nil {
		return nil, err
	}
	// The hook must never block the client's read loop; the epoch loop drains
	// one epoch at a time, so a few slots are slack enough.
	s.a.applied = make(chan appliedAt, 16)
	applied := s.a.applied
	s.a.c.SetEpochHook(func(e uint64) {
		select {
		case applied <- appliedAt{e, time.Now()}:
		default: // the epoch loop stopped reading; never block the read loop
		}
	})
	s.prevKey = s.taps[0].obs.groupKey
	return s, nil
}

// prime admits the offline members and replays the warm-up periods
// straight through the scheme, journaling each batch first as the server
// would. TT members present at time zero go directly to the L-partition
// (K=0 for the priming batch); the warm-up periods then fill S to its
// steady state.
func prime(st *store.Store, sc core.Scheme, in *inputs, g int) error {
	joins := make([]core.Join, in.members)
	for i := range joins {
		joins[i] = core.Join{ID: keytree.MemberID(i + 1)}
	}
	tp, isTP := sc.(*core.TwoPartition)
	if isTP {
		tp.SetSPeriod(0)
	}
	if err := journalApply(st, sc, core.Batch{Joins: joins}); err != nil {
		return fmt.Errorf("priming group %d: %w", g, err)
	}
	if isTP {
		tp.SetSPeriod(sPeriodK)
	}
	for i := 0; i < in.warmup; i++ {
		if err := journalApply(st, sc, in.traces[g][i].batch(0)); err != nil {
			return fmt.Errorf("warming group %d: %w", g, err)
		}
	}
	return nil
}

func journalApply(st *store.Store, sc core.Scheme, b core.Batch) error {
	if err := st.JournalBatch(b); err != nil {
		return err
	}
	_, err := sc.ProcessBatch(b)
	return err
}

// stage hands every group its next trace period. It reports false once
// the trace is exhausted.
func (s *system) stage() bool {
	for g, tap := range s.taps {
		var b core.Batch
		if s.in.traces != nil {
			if s.cursor >= len(s.in.traces[g]) {
				return false
			}
			b = s.in.traces[g][s.cursor].batch(probeChanges)
		}
		tap.stage(b)
	}
	s.cursor++
	return true
}

// rekey cuts one batch on every group and returns group 0's epoch with
// the call's start and end.
func (s *system) rekey() (epoch uint64, t0, t1 time.Time, err error) {
	t0 = time.Now()
	if s.reg != nil {
		err = s.reg.RekeyAllNow()
	} else {
		_, err = s.servers[0].RekeyNow()
	}
	t1 = time.Now()
	if err != nil {
		return 0, t0, t1, err
	}
	for g, tap := range s.taps {
		if tap.obs.rekey == nil {
			return 0, t0, t1, fmt.Errorf("group %d did not rekey", g)
		}
	}
	return s.taps[0].obs.rekey.Epoch, t0, t1, nil
}

// instrument attaches (or, with on false, detaches) the registry's
// per-group metrics, whose rekey tracer times each group's RekeyNow.
func (s *system) instrument(on bool) {
	for g, srv := range s.servers {
		if on {
			srv.Instrument(s.groupMetrics[g])
		} else {
			srv.Instrument(nil)
		}
	}
}

// startJoin dials a fresh probe into group 0 and returns once the server
// has registered its join, so the join lands in the next batch.
func (s *system) startJoin() (*joining, error) {
	j := &joining{start: time.Now(), res: make(chan joinResult, 1)}
	s.pending = append(s.pending, j)
	go func() {
		c, err := server.Dial(s.addr, wire.JoinRequest{}, dialTimeout)
		r := joinResult{c: c, err: err, dialed: time.Now()}
		if err == nil {
			// The first epoch a fresh client applies is its admitting one.
			r.err = c.WaitEpoch(1, waitTimeout)
			r.admitted = time.Now()
		}
		j.res <- r
	}()
	t := time.NewTimer(waitTimeout)
	defer t.Stop()
	select {
	case j.conn = <-s.ln.accepted:
	case <-t.C:
		return nil, fmt.Errorf("probe connection not accepted: %w", errTimeout)
	}
	if err := await(j.conn.consumed(joinFrameLen), waitTimeout); err != nil {
		return nil, fmt.Errorf("probe join not registered: %w", err)
	}
	return j, nil
}

// finishJoin collects a join admitted in epoch and checks the probe got
// the next ID and applied exactly that epoch.
func (s *system) finishJoin(j *joining, epoch uint64) (*probe, joinResult, error) {
	r := <-j.res
	s.pending = s.pending[:copy(s.pending, s.pending[1:])]
	if r.err != nil {
		if r.c != nil {
			r.c.Close()
		}
		return nil, r, fmt.Errorf("probe join: %w", r.err)
	}
	p := &probe{c: r.c, conn: j.conn}
	want := s.nextID
	s.nextID++
	if id := r.c.ID(); id != want {
		return p, r, fmt.Errorf("probe got member ID %d, want %d", id, want)
	}
	if e := r.c.Epoch(); e != epoch {
		return p, r, fmt.Errorf("probe admitted in epoch %d, want %d", e, epoch)
	}
	return p, r, nil
}

// close tears the system down: probes, server(s), stores, and any dial
// still in flight.
func (s *system) close() {
	for _, p := range []*probe{s.a, s.b} {
		if p != nil {
			p.c.Close()
		}
	}
	if s.reg != nil {
		s.reg.Close()
	} else {
		for _, srv := range s.servers {
			srv.Close()
		}
	}
	if s.ln != nil {
		s.ln.Close()
	}
	for _, j := range s.pending {
		if r := <-j.res; r.c != nil {
			r.c.Close()
		}
	}
	s.pending = nil
	for _, st := range s.stores {
		st.Close()
	}
}

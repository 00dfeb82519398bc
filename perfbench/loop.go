package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
	rmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scheme   string // "tt" or "onetree" replays the workload on that scheme
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	spans  string // span file path for traced runs ("" = none)
	log    io.Writer
	// The tests shrink workloads with these (0 keeps the workload's value).
	members int
	groups  int
	epochs  int // measured epochs; 0 derives them from seconds
}

const (
	// warmEpochs run before timing starts, so pools and caches fill.
	warmEpochs = 3
	// minEpochs is the fewest measured epochs a run makes.
	minEpochs = 8
	// hardDeadline bounds the epoch loop of a much slower build.
	hardDeadline = 150 * time.Second
)

// result is everything one run measured.
type result struct {
	attempted, failed int
	epochs            int // measured epochs (rounds)
	digest            string
	e2e               []metric // end-to-end metrics, measured untraced
	layers            []metric // per-layer metrics, from traced epochs
	extra             []metric // printed only: error_rate and the like
	spanCount         int
	// violations counts traced epochs whose layer intervals break the
	// accounting (see recorder.record); firstViolation describes one.
	violations     int
	firstViolation string
}

type metric struct {
	name, unit string
	value      float64
}

// samples is a growing list of measurements.
type samples []float64

func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// recorder accumulates a run's measurements.
type recorder struct {
	// untraced epochs
	epochMs, joinMs samples
	// traced epochs
	tEpochMs                                         samples
	journal, apply, snapshot, lock, seal, write      samples
	clientApply, dial, admitWait                     samples
	keys                                             int
	applySec, groupLockSum, roundSum                 float64
	joins, leaves, groupEpochs, snapshots, sendqPeak int
	wraps                                            int
	probeBytes                                       int64
	digest                                           hash.Hash
	item                                             []byte // hashPayloads' encoding buffer
	spans                                            *spanLog
	violations                                       int
	firstViolation                                   string
	// harness is the benchmark's own work between epochs.
	harness harnessCost
}

// harnessCost is what the benchmark's own work between epochs cost:
// staging the offline churn, hashing the payload and the backward-secrecy
// check. The throughput, CPU and allocation figures leave it out.
type harnessCost struct {
	wall, cpu time.Duration
	allocs    uint64
}

// exclude runs f and adds its cost to the harness's.
func (rec *recorder) exclude(f func() error) error {
	start, cpu0, a0 := time.Now(), processCPU(), readRuntime().allocs
	err := f()
	rec.harness.allocs += readRuntime().allocs - a0
	rec.harness.cpu += processCPU() - cpu0
	rec.harness.wall += time.Since(start)
	return err
}

// run executes one benchmark invocation.
func run(cfg config) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.members > 0 {
		w.members = cfg.members
	}
	if cfg.groups > 0 {
		w.groups = cfg.groups
	}
	kind := w.scheme
	switch cfg.scheme {
	case "":
	case "tt":
		kind = store.SchemeTT
	case "onetree":
		kind = store.SchemeOneTree
	default:
		return nil, fmt.Errorf("unknown scheme %q", cfg.scheme)
	}
	if cfg.setups < 1 {
		cfg.setups = 1
	}
	// Every run of a workload does the same work: a fixed number of
	// epochs, which --seconds sets through the workload's nominal rate.
	epochs := cfg.epochs
	if epochs <= 0 {
		epochs = int(math.Round(cfg.seconds * w.epochsPerSecond))
	}
	if epochs < minEpochs {
		epochs = minEpochs
	}
	genStart := time.Now()
	in, err := genInputs(w, cfg.seed, warmEpochs+epochs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "perfbench: %s inputs generated in %.2fs\n", w.name, time.Since(genStart).Seconds())

	// Set up several times; the last system is measured.
	var setupS samples
	var sys *system
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		start := time.Now()
		sys, err = build(w, in, cfg.seed, kind)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		fmt.Fprintf(cfg.log, "perfbench: set-up %d took %.3fs\n", i+1, setupS[i])
	}
	defer sys.close()
	sys.prevWraps = wrapsOf(nil, sys.taps[0].obs.rekey.AllItems())
	runtime.GC()

	rec := &recorder{digest: sha256.New(), spans: newSpanLog()}
	res := &result{}
	var (
		measureStart, measureEnd time.Time
		cpu0                     time.Duration
		rt0                      runtimeStats
		stopErr                  error
	)
	loopStart := time.Now()
	for i := 0; ; i++ {
		measuring := i >= warmEpochs
		if measuring && measureStart.IsZero() {
			rec.harness = harnessCost{}
			rt0 = readRuntime()
			cpu0 = processCPU()
			measureStart = time.Now()
		}
		if i == warmEpochs+epochs {
			break
		}
		if time.Since(loopStart) > hardDeadline {
			stopErr = fmt.Errorf("only %d of %d epochs before the deadline", i, warmEpochs+epochs)
			break
		}
		var staged bool
		rec.exclude(func() error { staged = sys.stage(); return nil })
		if !staged {
			stopErr = fmt.Errorf("trace exhausted after %d epochs", i)
			break
		}
		traced := cfg.trace && measuring && (i-warmEpochs)%2 == 0
		res.attempted += 2 // the epoch and the join it admits
		failed, err := sys.epoch(rec, i, measuring, traced, cfg.log)
		res.failed += failed
		if err != nil {
			stopErr = err
			break
		}
		if measuring {
			res.epochs++
			measureEnd = time.Now()
		}
	}
	if stopErr != nil {
		res.failed++
		return res, stopErr
	}
	cpu1 := processCPU()
	rt1 := readRuntime()
	// The live heap leaves out the benchmark's inputs and check state, but
	// not the in-memory disk, which disk_mb reports beside it.
	in.traces = nil
	sys.prevWraps = nil
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	var disk int
	for _, data := range sys.fs.Snapshot() {
		disk += len(data)
	}

	var shed, evicted uint64
	for _, srv := range sys.servers {
		shed += srv.ShedFrames()
		evicted += srv.SlowEvictions()
	}

	groupEpochs := float64(res.epochs * w.groups)
	wall := (measureEnd.Sub(measureStart) - rec.harness.wall).Seconds()
	cpu := float64((cpu1 - cpu0 - rec.harness.cpu).Nanoseconds()) / 1e6
	allocs := float64(rt1.allocs - rt0.allocs - rec.harness.allocs)
	res.digest = fmt.Sprintf("%x", rec.digest.Sum(nil))
	res.e2e = []metric{
		{"setup_s", "s", setupS.quantile(0.5)},
		{"epoch_ms.p50", "ms", rec.epochMs.quantile(0.5)},
		{"epoch_ms.p95", "ms", rec.epochMs.quantile(0.95)},
		{"epochs_per_s", "group-epochs/s", groupEpochs / wall},
		{"join_ms.p50", "ms", rec.joinMs.quantile(0.5)},
		{"join_ms.p95", "ms", rec.joinMs.quantile(0.95)},
		{"wraps_per_epoch", "keys", float64(rec.wraps) / groupEpochs},
		{"bytes_per_member", "B", float64(rec.probeBytes) / float64(res.epochs)},
		{"cpu_ms_per_epoch", "ms", cpu / groupEpochs},
		{"heap_live_mb", "MB", float64(live.HeapAlloc) / 1e6},
	}
	res.extra = []metric{
		{"error_rate", "ratio", float64(res.failed) / float64(res.attempted)},
		{"measured_epochs", "count", float64(res.epochs)},
		{"disk_mb", "MB", float64(disk) / 1e6},
	}
	overhead := rec.tEpochMs.quantile(0.5) - rec.epochMs.quantile(0.5)
	res.layers = []metric{
		{"store.journal_ms.p50", "ms", rec.journal.quantile(0.5)},
		{"store.journal_ms.p95", "ms", rec.journal.quantile(0.95)},
		{"store.snapshot_ms.p50", "ms", orZero(rec.snapshot.quantile(0.5))},
		{"store.snapshots", "count", float64(rec.snapshots)},
		{"core.apply_ms.p50", "ms", rec.apply.quantile(0.5)},
		{"core.apply_ms.p95", "ms", rec.apply.quantile(0.95)},
		{"core.keys_per_s", "keys/s", float64(rec.keys) / rec.applySec},
		{"core.joins_per_epoch", "count", float64(rec.joins) / float64(rec.groupEpochs)},
		{"core.leaves_per_epoch", "count", float64(rec.leaves) / float64(rec.groupEpochs)},
		{"server.lock_ms.p50", "ms", rec.lock.quantile(0.5)},
		{"server.lock_ms.p95", "ms", rec.lock.quantile(0.95)},
		{"server.seal_ms.p50", "ms", rec.seal.quantile(0.5)},
		{"server.seal_ms.p95", "ms", rec.seal.quantile(0.95)},
		{"server.sendq_peak", "frames", float64(rec.sendqPeak)},
		{"server.shed_frames", "count", float64(shed)},
		{"server.slow_evictions", "count", float64(evicted)},
		{"fanout.write_ms.p50", "ms", rec.write.quantile(0.5)},
		{"fanout.write_ms.p95", "ms", rec.write.quantile(0.95)},
		{"client.apply_ms.p50", "ms", rec.clientApply.quantile(0.5)},
		{"client.apply_ms.p95", "ms", rec.clientApply.quantile(0.95)},
		{"client.dial_ms.p50", "ms", rec.dial.quantile(0.5)},
		{"client.dial_ms.p95", "ms", rec.dial.quantile(0.95)},
		{"client.admit_wait_ms.p50", "ms", rec.admitWait.quantile(0.5)},
		// A group's RekeyNow holds that group's lock: the same samples.
		{"registry.group_lock_ms.p50", "ms", rec.lock.quantile(0.5)},
		{"registry.group_lock_ms.p95", "ms", rec.lock.quantile(0.95)},
		{"registry.parallelism", "ratio", rec.groupLockSum / rec.roundSum},
		{"runtime.allocs_per_epoch", "allocs", allocs / groupEpochs},
		{"runtime.gc_cpu_fraction", "ratio", gcFraction(rt0, rt1)},
		{"trace.epoch_ms.p50", "ms", rec.tEpochMs.quantile(0.5)},
		{"trace.overhead_ms", "ms", overhead},
		{"trace.spans", "count", float64(len(rec.spans.spans))},
		{"trace.accounting_violations", "count", float64(rec.violations)},
	}
	res.spanCount = len(rec.spans.spans)
	res.violations, res.firstViolation = rec.violations, rec.firstViolation
	if cfg.trace && cfg.spans != "" {
		if err := rec.spans.write(cfg.spans); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// runtimeStats are the Go runtime's cumulative GC CPU, total CPU and
// heap allocation counts.
type runtimeStats struct {
	gcCPU, totalCPU float64
	allocs          uint64
}

var runtimeSamples = []rmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

// readRuntime reads the runtime's counters; only the epoch loop's
// goroutine calls it.
func readRuntime() runtimeStats {
	rmetrics.Read(runtimeSamples)
	return runtimeStats{
		gcCPU:    runtimeSamples[0].Value.Float64(),
		totalCPU: runtimeSamples[1].Value.Float64(),
		allocs:   runtimeSamples[2].Value.Uint64() + runtimeSamples[3].Value.Uint64(),
	}
}

func gcFraction(a, b runtimeStats) float64 {
	total := b.totalCPU - a.totalCPU
	if total <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / total
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// epoch drives one closed-loop epoch: probe B leaves, a fresh probe
// joins, the batch is cut, and the loop waits until every connected
// probe has applied the new epoch, then checks the keys. It returns the
// number of failed operations; an error aborts the run.
func (s *system) epoch(rec *recorder, i int, measuring, traced bool, log io.Writer) (int, error) {
	// Both membership changes are registered by the server before the
	// batch is cut, so each lands in this epoch's batch.
	if err := s.b.c.Leave(); err != nil {
		return 0, fmt.Errorf("probe leave: %w", err)
	}
	if err := await(s.b.conn.consumed(joinFrameLen+leaveFrameLen), waitTimeout); err != nil {
		return 0, fmt.Errorf("probe leave not registered: %w", err)
	}
	j, err := s.startJoin()
	if err != nil {
		return 0, err
	}
	aBytes0, _ := s.a.conn.rekeyWrites()
	if traced && s.reg != nil {
		s.instrument(true)
	}
	var lastSeq uint64
	if s.tracer != nil {
		lastSeq = s.tracer.Total()
	}

	epoch, t0, t1, err := s.rekey()
	sendq := s.servers[0].QueuedFrames()
	if err != nil {
		return 0, fmt.Errorf("rekey: %w", err)
	}
	aAt, err := s.a.waitApplied(epoch)
	if err != nil {
		return 0, err
	}
	jp, jr, err := s.finishJoin(j, epoch)
	if err != nil {
		return 0, err
	}
	if err := await(s.b.c.Done(), waitTimeout); err != nil {
		return 0, fmt.Errorf("departed probe not disconnected: %w", err)
	}
	if traced && s.reg != nil {
		s.instrument(false)
	}
	end := later(t1, later(aAt, jr.admitted))

	// Checks: agreement, forward and backward secrecy, authenticity, and
	// no frame shed or member evicted. A failed check fails the epoch or
	// the join it concerns.
	gk := s.taps[0].obs.groupKey
	epochOK := s.a.c.HasKey(gk) &&
		s.b.c.Epoch() == epoch && !s.b.c.HasKey(gk) &&
		s.a.c.BadSignatures() == 0 && s.a.c.Undecryptable() == 0 &&
		s.b.c.BadSignatures() == 0 && s.b.c.Undecryptable() == 0
	for _, srv := range s.servers {
		epochOK = epochOK && srv.ShedFrames() == 0 && srv.SlowEvictions() == 0
	}
	joinOK := jp.c.HasKey(gk) && jp.c.BadSignatures() == 0 && jp.c.Undecryptable() == 0
	err = rec.exclude(func() error {
		welcome, ok := s.taps[0].obs.rekey.Welcome[jp.c.ID()]
		cur := wrapsOf(nil, s.taps[0].obs.rekey.AllItems())
		joinOK = joinOK && ok && backwardSecret(welcome, cur, s.prevWraps, gk, s.prevKey)
		s.prevWraps = cur
		return rec.hashPayloads(s.taps)
	})
	if err != nil {
		return 0, err
	}
	failed := 0
	if !epochOK {
		failed++
		fmt.Fprintf(log, "epoch %d: check failed: agreement, forward secrecy, signatures or shedding\n", epoch)
	}
	if !joinOK {
		failed++
		fmt.Fprintf(log, "epoch %d: join check failed: agreement, backward secrecy or signatures\n", epoch)
	}

	aBytes1, aLast := s.a.conn.rekeyWrites()
	_, jLast := jp.conn.rekeyWrites()
	if measuring {
		rec.record(s, epoch, t0, t1, end, aAt, aLast, jLast, j.start, jr, aBytes1-aBytes0, sendq, lastSeq, traced)
	}

	s.b.c.Close()
	s.b = jp
	s.prevKey = gk
	return failed, nil
}

// backwardSecret reports whether a joiner is kept out of the epoch before
// its admission. It takes the closure of what the joiner could learn from
// its Welcome key, the admitting payload's wrapped keys (cur) and the
// previous payload's (prev), which it may have recorded before it joined.
// The closure keeps every version of every key, so a key the joiner was
// handed and then overwrote still counts. It must hold the new group key,
// and neither the previous group key nor any key the previous payload
// carried.
func backwardSecret(welcome keycrypt.Key, cur, prev []keycrypt.WrappedKey, gk, prevKey keycrypt.Key) bool {
	type ref struct {
		id keycrypt.KeyID
		v  keycrypt.Version
	}
	known := map[ref]keycrypt.Key{{welcome.ID, welcome.Version}: welcome}
	for progress := true; progress; {
		progress = false
		for _, wraps := range [][]keycrypt.WrappedKey{cur, prev} {
			for _, w := range wraps {
				k, ok := known[ref{w.WrapperID, w.WrapperVersion}]
				if _, learned := known[ref{w.PayloadID, w.PayloadVersion}]; !ok || learned {
					continue
				}
				if got, err := keycrypt.Unwrap(w, k); err == nil {
					known[ref{got.ID, got.Version}] = got
					progress = true
				}
			}
		}
	}
	has := func(k keycrypt.Key) bool {
		h, ok := known[ref{k.ID, k.Version}]
		return ok && h.Equal(k)
	}
	if !has(gk) || has(prevKey) {
		return false
	}
	for _, w := range prev {
		if _, ok := known[ref{w.PayloadID, w.PayloadVersion}]; ok {
			return false
		}
	}
	return true
}

// wrapsOf appends the wrapped keys of items to dst.
func wrapsOf(dst []keycrypt.WrappedKey, items []keytree.Item) []keycrypt.WrappedKey {
	for _, it := range items {
		dst = append(dst, it.Wrapped)
	}
	return dst
}

// hashPayloads adds every group's items of the epoch just cut to the
// payload digest, each encoded with wire.AppendRekeyItem.
func (rec *recorder) hashPayloads(taps []*groupTap) error {
	var head [12]byte
	for g, tap := range taps {
		rk := tap.obs.rekey
		binary.BigEndian.PutUint64(head[:8], rk.Epoch)
		binary.BigEndian.PutUint32(head[8:], uint32(g))
		rec.digest.Write(head[:])
		for _, it := range rk.AllItems() {
			var err error
			if rec.item, err = wire.AppendRekeyItem(rec.item[:0], it); err != nil {
				return err
			}
			rec.digest.Write(rec.item)
		}
	}
	return nil
}

// record files one measured epoch's numbers; traced epochs also record
// spans and per-layer numbers.
func (rec *recorder) record(s *system, epoch uint64, t0, t1, end, aAt, aLast, jLast, joinStart time.Time, jr joinResult, probeBytes, sendq int64, lastSeq uint64, traced bool) {
	rec.probeBytes += probeBytes
	for _, tap := range s.taps {
		rec.wraps += tap.obs.rekey.MulticastKeyCount()
		rec.joins += tap.obs.joins
		rec.leaves += tap.obs.leaves
		rec.groupEpochs++
		if tap.obs.snapshots > 0 {
			rec.snapshots++
			rec.snapshot = append(rec.snapshot, tap.obs.snapshot.ms())
		}
	}
	if !traced {
		rec.epochMs = append(rec.epochMs, msBetween(t0, end))
		rec.joinMs = append(rec.joinMs, msBetween(joinStart, jr.admitted))
		return
	}
	if int(sendq) > rec.sendqPeak {
		rec.sendqPeak = int(sendq)
	}
	epochMs := msBetween(t0, end)
	rec.tEpochMs = append(rec.tEpochMs, epochMs)
	sp := rec.spans
	root := sp.add("epoch", 0, epoch, -1, t0, end)

	// Per group: journal, apply, snapshot, and the seal (the rest of the
	// group's RekeyNow under its lock). A single group's lock interval is
	// the RekeyNow call; a registry group's comes from the server's rekey
	// tracer, which stamps it after the seal and before the snapshot.
	groupLock := func(g int) (start, sealed time.Time, ok bool) { return t0, t1, true }
	if s.reg != nil {
		events := s.tracer.Events()
		byGroup := make(map[string][2]time.Time, len(s.taps))
		for _, ev := range events {
			if ev.Seq <= lastSeq {
				continue
			}
			done := ev.Time
			start := done.Add(-time.Duration(ev.DurationSeconds * float64(time.Second)))
			byGroup[ev.Group] = [2]time.Time{start, done}
		}
		groupLock = func(g int) (time.Time, time.Time, bool) {
			iv, ok := byGroup[strconv.Itoa(g)]
			return iv[0], iv[1], ok
		}
	}
	parent := root
	if s.reg != nil {
		parent = sp.add("registry.round", root, epoch, -1, t0, t1)
		rec.roundSum += msBetween(t0, t1)
	}
	for g, tap := range s.taps {
		obs := tap.obs
		ls, sealed, ok := groupLock(g)
		rec.check(epoch, ok, "group %d has no rekey event", g)
		if s.reg != nil && obs.journal.start.Before(ls) {
			// The tracer stamps a group just after timing it, so the
			// start its duration implies can trail the true one.
			ls = obs.journal.start
		}
		le := sealed
		if obs.snapshots > 0 && s.reg != nil {
			le = obs.snapshot.end
		}
		lockMs := msBetween(ls, le)
		// The seal is what is left of the lock once its timed children are
		// taken out, so the blocking path adds up to the epoch by
		// construction. These checks hold only if every child lies inside
		// the lock, in the order the server calls them.
		seal := lockMs - obs.journal.ms() - obs.apply.ms()
		rec.check(epoch, inOrder(t0, ls, obs.journal.start, obs.journal.end, obs.apply.start, obs.apply.end, sealed, le, t1),
			"group %d: lock, journal, apply, seal not in order inside the round: %s", g,
			offsets(t0, ls, obs.journal.start, obs.journal.end, obs.apply.start, obs.apply.end, sealed, le, t1))
		name := "server.lock"
		if s.reg != nil {
			name = "registry.group"
		}
		lock := sp.add(name, parent, epoch, g, ls, le)
		sp.add("store.journal", lock, epoch, g, obs.journal.start, obs.journal.end)
		sp.add("core.apply", lock, epoch, g, obs.apply.start, obs.apply.end)
		if obs.snapshots > 0 {
			sp.add("store.snapshot", lock, epoch, g, obs.snapshot.start, obs.snapshot.end)
			seal -= obs.snapshot.ms()
			// A registry group's snapshot follows its tracer stamp; a
			// single group's follows the apply.
			after := obs.apply.end
			if s.reg != nil {
				after = sealed
			}
			rec.check(epoch, inOrder(after, obs.snapshot.start, obs.snapshot.end, le),
				"group %d: snapshot not inside the lock, after the apply: %s", g,
				offsets(t0, after, obs.snapshot.start, obs.snapshot.end, le))
		}
		rec.check(epoch, seal >= 0, "group %d: seal %.6f ms < 0", g, seal)
		rec.journal = append(rec.journal, obs.journal.ms())
		rec.apply = append(rec.apply, obs.apply.ms())
		rec.lock = append(rec.lock, lockMs)
		rec.seal = append(rec.seal, seal)
		rec.groupLockSum += lockMs
		rec.keys += obs.rekey.TotalKeyCount()
		rec.applySec += obs.apply.end.Sub(obs.apply.start).Seconds()
		if s.reg == nil {
			rec.roundSum += lockMs
		}
	}

	// Delivery: the probe that applied last is on the blocking path. Each
	// probe's last rekey byte must be written after the cut and before the
	// probe applied the epoch.
	rec.check(epoch, inOrder(t0, aLast, aAt), "probe A's frame written %.3f ms after the cut, applied at %.3f ms",
		msBetween(t0, aLast), msBetween(t0, aAt))
	rec.check(epoch, inOrder(t0, jLast, jr.admitted), "the joiner's frame written %.3f ms after the cut, applied at %.3f ms",
		msBetween(t0, jLast), msBetween(t0, jr.admitted))
	crit, critLast := aAt, aLast
	if jr.admitted.After(aAt) {
		crit, critLast = jr.admitted, jLast
	}
	writeEnd := later(t1, critLast)
	sp.add("fanout.write", root, epoch, 0, t1, writeEnd)
	sp.add("client.apply", root, epoch, 0, writeEnd, later(t1, crit))
	rec.write = append(rec.write, msBetween(t1, writeEnd))
	rec.clientApply = append(rec.clientApply, msBetween(aLast, aAt))

	join := sp.add("join", 0, epoch, 0, joinStart, jr.admitted)
	sp.add("client.dial", join, epoch, 0, joinStart, jr.dialed)
	sp.add("client.admit_wait", join, epoch, 0, jr.dialed, jr.admitted)
	rec.dial = append(rec.dial, msBetween(joinStart, jr.dialed))
	rec.admitWait = append(rec.admitWait, msBetween(jr.dialed, jr.admitted))
}

// check counts a traced epoch whose accounting does not hold.
func (rec *recorder) check(epoch uint64, ok bool, format string, args ...any) {
	if ok {
		return
	}
	rec.violations++
	if rec.firstViolation == "" {
		rec.firstViolation = fmt.Sprintf("epoch %d: ", epoch) + fmt.Sprintf(format, args...)
	}
}

// inOrder reports whether the times never decrease.
func inOrder(ts ...time.Time) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i].Before(ts[i-1]) {
			return false
		}
	}
	return true
}

// offsets prints times as milliseconds after t0.
func offsets(t0 time.Time, ts ...time.Time) string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = strconv.FormatFloat(msBetween(t0, t), 'f', 3, 64)
	}
	return strings.Join(out, " ")
}

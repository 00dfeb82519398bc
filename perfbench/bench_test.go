package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// short runs every workload at a tiny size: a few epochs, one set-up.
func short(t *testing.T, workload string, seed uint64, trace bool) config {
	t.Helper()
	cfg := config{
		workload: workload,
		seed:     seed,
		trace:    trace,
		setups:   1,
		epochs:   10,
		log:      io.Discard,
	}
	switch workload {
	case "paper-tt-64k":
		cfg.members = 512
	case "revoke-onetree-100k":
		cfg.members = 1000
	case "groups-64x1k":
		cfg.groups, cfg.members = 4, 128
	}
	if trace {
		cfg.spans = filepath.Join(t.TempDir(), "spans.json")
	}
	return cfg
}

var e2eNames = []string{
	"setup_s", "epoch_ms.p50", "epoch_ms.p95", "epochs_per_s", "join_ms.p50", "join_ms.p95",
	"wraps_per_epoch", "bytes_per_member", "cpu_ms_per_epoch", "heap_live_mb",
}

var layerNames = []string{
	"store.journal_ms.p50", "store.journal_ms.p95", "store.snapshot_ms.p50", "store.snapshots",
	"core.apply_ms.p50", "core.apply_ms.p95", "core.keys_per_s", "core.joins_per_epoch", "core.leaves_per_epoch",
	"server.lock_ms.p50", "server.lock_ms.p95", "server.seal_ms.p50", "server.seal_ms.p95",
	"server.sendq_peak", "server.shed_frames", "server.slow_evictions",
	"fanout.write_ms.p50", "fanout.write_ms.p95",
	"client.apply_ms.p50", "client.apply_ms.p95", "client.dial_ms.p50", "client.dial_ms.p95", "client.admit_wait_ms.p50",
	"registry.group_lock_ms.p50", "registry.group_lock_ms.p95", "registry.parallelism",
	"runtime.allocs_per_epoch", "runtime.gc_cpu_fraction",
	"trace.epoch_ms.p50", "trace.overhead_ms", "trace.spans", "trace.accounting_violations",
}

func byName(ms []metric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for _, m := range ms {
		out[m.name] = m
	}
	return out
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed", cfg.workload, res.failed, res.attempted)
	}
	return res
}

func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := mustRun(t, short(t, w.name, 7, false))
			got := byName(res.e2e)
			for _, name := range e2eNames {
				m, ok := got[name]
				if !ok || m.unit == "" {
					t.Errorf("end-to-end metric %s missing or without unit", name)
					continue
				}
				if !(m.value > 0) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v, want a positive number", name, m.value)
				}
			}
			if len(res.e2e) != len(e2eNames) {
				t.Errorf("%d end-to-end metrics, want %d", len(res.e2e), len(e2eNames))
			}
		})
	}
}

func TestTracedRunWritesSpansAndAccountsForEpochs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := short(t, w.name, 7, true)
			res := mustRun(t, cfg)
			got := byName(res.layers)
			for _, name := range layerNames {
				m, ok := got[name]
				if !ok || m.unit == "" || math.IsNaN(m.value) {
					t.Errorf("per-layer metric %s missing, without unit or NaN", name)
				}
			}
			if len(res.layers) != len(layerNames) {
				t.Errorf("%d per-layer metrics, want %d", len(res.layers), len(layerNames))
			}
			// Every timed layer lies inside its parent, in call order, and
			// leaves a seal of at least 0.
			if res.violations != 0 {
				t.Errorf("%d accounting violations, first: %s", res.violations, res.firstViolation)
			}
			for _, name := range []string{"server.shed_frames", "server.slow_evictions", "trace.accounting_violations"} {
				if got[name].value != 0 {
					t.Errorf("%s = %v, want 0", name, got[name].value)
				}
			}
			data, err := os.ReadFile(cfg.spans)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			if len(spans) != res.spanCount || len(spans) == 0 {
				t.Fatalf("span file holds %d spans, run reported %d", len(spans), res.spanCount)
			}
			names := map[string]bool{}
			for _, s := range spans {
				names[s.Name] = true
				if s.End < s.Start {
					t.Fatalf("span %+v ends before it starts", s)
				}
			}
			want := []string{"epoch", "store.journal", "core.apply", "fanout.write", "client.apply", "join", "client.dial", "client.admit_wait"}
			if w.groups > 1 {
				want = append(want, "registry.round", "registry.group")
			} else {
				want = append(want, "server.lock")
			}
			for _, n := range want {
				if !names[n] {
					t.Errorf("no %s span", n)
				}
			}
		})
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := mustRun(t, short(t, w.name, 11, false))
			b := mustRun(t, short(t, w.name, 11, false))
			if a.digest != b.digest {
				t.Errorf("same seed, digests %s and %s", a.digest, b.digest)
			}
			for _, name := range []string{"wraps_per_epoch", "bytes_per_member"} {
				va, vb := byName(a.e2e)[name].value, byName(b.e2e)[name].value
				if va != vb {
					t.Errorf("same seed, %s %v and %v", name, va, vb)
				}
			}
			c := mustRun(t, short(t, w.name, 12, false))
			if c.digest == a.digest {
				t.Errorf("seeds 11 and 12 gave the same digest")
			}
		})
	}
}

// TestTTWrapsBelowOneTree replays the same paper trace through TT and
// OneTree: the two-partition scheme must multicast fewer keys.
func TestTTWrapsBelowOneTree(t *testing.T) {
	cfg := short(t, "paper-tt-64k", 3, false)
	cfg.members = 4096
	tt := byName(mustRun(t, cfg).e2e)["wraps_per_epoch"].value
	cfg.scheme = "onetree"
	one := byName(mustRun(t, cfg).e2e)["wraps_per_epoch"].value
	if !(tt < one) {
		t.Errorf("wraps_per_epoch: TT %.1f, OneTree %.1f; want TT below OneTree", tt, one)
	}
}

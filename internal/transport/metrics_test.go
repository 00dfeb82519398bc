package transport

import (
	"strings"
	"testing"

	"groupkey/internal/keytree"
	"groupkey/internal/metrics"
)

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.observeResult(Result{Rounds: 2, KeysSent: 10, PacketsSent: 3, NACKs: 1, KeysPerRound: []int{6, 4}})
	m.observeWeight(3)
	m.addParityKeys(8)
}

func TestWKABKRRecordsMetrics(t *testing.T) {
	items, need, members := buildPayload(t, 11, 4, 128, []keytree.MemberID{5, 40})
	cfg := DefaultConfig()
	cfg.LossEstimate = func(keytree.MemberID) float64 { return 0.2 }
	net := lossNetwork(t, 11, members, 0.2)

	reg := metrics.NewRegistry()
	proto := NewWKABKR(cfg)
	proto.Metrics = NewMetrics(reg)
	res, err := proto.Deliver(items, need, net)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}

	m := proto.Metrics
	if got := m.KeysSent.Value(); got != uint64(res.KeysSent) {
		t.Errorf("KeysSent counter=%d, want %d", got, res.KeysSent)
	}
	if got := m.PacketsSent.Value(); got != uint64(res.PacketsSent) {
		t.Errorf("PacketsSent counter=%d, want %d", got, res.PacketsSent)
	}
	if got := m.NACKs.Value(); got != uint64(res.NACKs) {
		t.Errorf("NACKs counter=%d, want %d", got, res.NACKs)
	}
	if got := m.Rounds.Count(); got != 1 {
		t.Errorf("Rounds histogram count=%d, want 1 delivery", got)
	}
	if got := m.Rounds.Sum(); got != float64(res.Rounds) {
		t.Errorf("Rounds histogram sum=%v, want %d", got, res.Rounds)
	}
	// With a 20% loss estimate WKA must replicate at least the root key.
	if m.ReplicationWeight.Count() == 0 {
		t.Error("ReplicationWeight histogram empty; weights not observed")
	}
	if m.ReplicationWeight.Max() < 2 {
		t.Errorf("ReplicationWeight max=%v, want >= 2 under 20%% loss", m.ReplicationWeight.Max())
	}
	// Retransmissions are the keys sent after round one.
	var retrans int
	for _, k := range res.KeysPerRound[1:] {
		retrans += k
	}
	if got := m.RetransmittedKeys.Value(); got != uint64(retrans) {
		t.Errorf("RetransmittedKeys=%d, want %d", got, retrans)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{
		"groupkey_transport_keys_sent_total",
		"groupkey_transport_rounds_bucket",
		"groupkey_wkabkr_replication_weight_count",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestMultiSendRecordsMetrics(t *testing.T) {
	items, need, members := buildPayload(t, 12, 4, 64, []keytree.MemberID{9})
	net := lossNetwork(t, 12, members, 0.1)
	reg := metrics.NewRegistry()
	proto := NewMultiSend(DefaultConfig(), 2)
	proto.Metrics = NewMetrics(reg)
	res, err := proto.Deliver(items, need, net)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if got := proto.Metrics.KeysSent.Value(); got != uint64(res.KeysSent) {
		t.Errorf("KeysSent counter=%d, want %d", got, res.KeysSent)
	}
	if proto.Metrics.ParityKeys.Value() != 0 {
		t.Error("multi-send must not record FEC parity")
	}
}

func TestProactiveFECRecordsParity(t *testing.T) {
	items, need, members := buildPayload(t, 13, 4, 256, []keytree.MemberID{3, 77})
	net := lossNetwork(t, 13, members, 0.15)
	cfg := DefaultConfig()
	reg := metrics.NewRegistry()
	proto := NewProactiveFEC(cfg)
	proto.Rho = 1.25
	proto.Metrics = NewMetrics(reg)
	res, err := proto.Deliver(items, need, net)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if got := proto.Metrics.PacketsSent.Value(); got != uint64(res.PacketsSent) {
		t.Errorf("PacketsSent counter=%d, want %d", got, res.PacketsSent)
	}
	// Rho > 1 forces parity shards in round one.
	if proto.Metrics.ParityKeys.Value() == 0 {
		t.Error("ParityKeys=0, want > 0 with rho=1.25")
	}
	if got := proto.Metrics.ParityKeys.Value(); got > uint64(res.KeysSent) {
		t.Errorf("ParityKeys=%d exceeds total KeysSent=%d", got, res.KeysSent)
	}
}

func TestMetricsAccumulateAcrossDeliveries(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	cfg := DefaultConfig()
	for i := 0; i < 3; i++ {
		items, need, members := buildPayload(t, 20+uint64(i), 4, 32, []keytree.MemberID{2})
		net := lossNetwork(t, 20+uint64(i), members, 0)
		proto := NewWKABKR(cfg)
		proto.Metrics = m
		if _, err := proto.Deliver(items, need, net); err != nil {
			t.Fatalf("Deliver %d: %v", i, err)
		}
	}
	if got := m.Rounds.Count(); got != 3 {
		t.Errorf("Rounds histogram count=%d, want 3 deliveries", got)
	}
}

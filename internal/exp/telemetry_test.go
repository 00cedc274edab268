package exp

import (
	"bytes"
	"testing"

	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/stats"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// telemetryConfig is a short fig3-style scenario, optionally with the
// streaming telemetry collector attached.
func telemetryConfig(seed uint64, tel *obs.Telemetry) ObserveConfig {
	cfg := DefaultObserveConfig(CEE, DetBaseline, false)
	cfg.Seed = seed
	cfg.Horizon = 2 * units.Millisecond
	cfg.BurstRounds = 4
	cfg.Obs = obs.Config{Telemetry: tel}
	return cfg
}

func telemetryObserve(seed uint64, tel *obs.Telemetry) *Result {
	return Observe(telemetryConfig(seed, tel))
}

// TestTelemetryDoesNotPerturbResults is the golden-preservation property:
// attaching the full telemetry stack (event fold + queue sampler) must
// leave every scalar and every pre-existing series byte-identical,
// because its hooks are read-only observers.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	plain := telemetryObserve(1, nil)
	teled := telemetryObserve(1, obs.NewTelemetry(nil))

	if len(teled.Hists) == 0 {
		t.Fatal("telemetry run attached no histograms")
	}
	if plain.Hists != nil {
		t.Fatal("plain run grew histograms; default outputs would change")
	}
	// Strip the telemetry-only series, then the JSON must match exactly.
	delete(teled.Series, "telemetry_queue_win")
	teled.Hists = nil
	var pb, tb bytes.Buffer
	if err := plain.WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	if err := teled.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.Bytes(), tb.Bytes()) {
		t.Error("telemetry perturbed the simulation results")
	}
}

// TestTelemetryCollectsDistributions: the fig3 scenario must populate the
// headline histograms (flows complete, queues fill, PFC pauses, marks
// fire), sample queue depth at its fixed tick, and return a queue series
// that covers the whole run — burst included — under the tracer's bound.
func TestTelemetryCollectsDistributions(t *testing.T) {
	// 30 ms: the burst is long over by the horizon.
	cfg := telemetryConfig(1, obs.NewTelemetry(nil))
	cfg.Horizon = 30 * units.Millisecond
	res := Observe(cfg)

	for _, name := range []string{"fct_ps", "queue_bytes", "pause_dur_ps", "mark_gap_ps"} {
		h, ok := res.Hists[name]
		if !ok {
			t.Fatalf("histogram %s missing from result", name)
		}
		if h.Count() == 0 {
			t.Errorf("histogram %s is empty", name)
		}
	}
	if res.Hists["fct_ps"].Min() <= 0 {
		t.Errorf("fct min = %d, want > 0", res.Hists["fct_ps"].Min())
	}
	// One sample per port per tick, whatever the series' grid is.
	ports := 2 * len(topo.NewFig2(topo.DefaultFig2Config()).Links)
	if got, want := res.Hists["queue_bytes"].Count(), int64(cfg.Horizon/obs.QueueSampleEvery)*int64(ports); got != want {
		t.Errorf("queue_bytes count = %d, want %d (%d ports at a %v tick)", got, want, ports, obs.QueueSampleEvery)
	}
	s, ok := res.Series["telemetry_queue_win"]
	if !ok || len(s.T) == 0 {
		t.Fatal("telemetry queue series missing")
	}
	if n := len(s.T); n > stats.SeriesCap+1 {
		t.Errorf("queue series holds %d samples, over the cap of %d", n, stats.SeriesCap+1)
	}
	if first, last := s.T[0], s.T[len(s.T)-1]; first != 0 || last != cfg.Horizon {
		t.Errorf("queue series covers %v..%v, want 0..%v", first, last, cfg.Horizon)
	}
	peak := 0
	for i, v := range s.V {
		if v > s.V[peak] {
			peak = i
		}
	}
	burstStart := 200 * units.Microsecond
	burstEnd := units.Time(res.Scalars["burst_end_ms"] * float64(units.Millisecond))
	if at := s.T[peak]; s.V[peak] <= 0 || at < burstStart || at > burstEnd {
		t.Errorf("queue series peaks at %v (%.0f B), outside the burst window %v..%v", at, s.V[peak], burstStart, burstEnd)
	}
}

// TestTelemetryDeterministicExports: two same-seed runs produce
// byte-identical result JSON (including histograms) and byte-identical
// Prometheus metric exports.
func TestTelemetryDeterministicExports(t *testing.T) {
	export := func() (resJSON, prom []byte) {
		tel := obs.NewTelemetry(nil)
		res := telemetryObserve(1, tel)
		var rb bytes.Buffer
		if err := res.WriteJSON(&rb); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		tel.FoldInto(reg)
		var pb bytes.Buffer
		if err := reg.WriteProm(&pb); err != nil {
			t.Fatal(err)
		}
		return rb.Bytes(), pb.Bytes()
	}
	r1, p1 := export()
	r2, p2 := export()
	if !bytes.Equal(r1, r2) {
		t.Error("same-seed telemetry result JSON differs")
	}
	if !bytes.Equal(p1, p2) {
		t.Error("same-seed Prometheus exports differ")
	}
	if !bytes.Contains(p1, []byte("hist_fct_ps_count")) {
		t.Error("Prometheus export missing telemetry gauges")
	}
}

// TestHistJSONRoundTripThroughResult: result JSON embeds histograms that
// decode back to equal state — the sweep aggregation path depends on it.
func TestHistJSONRoundTripThroughResult(t *testing.T) {
	tel := obs.NewTelemetry(nil)
	res := telemetryObserve(1, tel)
	h := res.Hists["fct_ps"]
	b, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back := obs.NewHist()
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(h) {
		t.Fatal("histogram did not survive the JSON round trip")
	}
}

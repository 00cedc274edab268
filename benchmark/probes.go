package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tcdnet/tcd/internal/cbfc"
	"github.com/tcdnet/tcd/internal/core"
	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/exp/sweep"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/serve"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// probeBatches is how many batches a layer probe times; its result is
// the quiet floor of the batches, per call.
const probeBatches = 20

// perCall times batches of fn, each making calls calls into a layer's
// public API, and returns the quiet floor in nanoseconds per call.
func perCall(batches, calls int, fn func()) float64 {
	samples := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		fn()
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return quietFloor(samples)
}

// runProbes measures each layer in isolation, through public functions
// only. The probes do not depend on the workload: every traced run
// reports them, and they should agree across workloads.
func runProbes(res *runResult, tr *tracer, outDir string) error {
	parent := tr.begin("probes", -1, -1)
	defer tr.end(parent)
	var err error
	for _, p := range []struct {
		name string
		run  func()
	}{
		{"sim", func() {
			res.set("sim.churn_hybrid_ns", probeChurn(sim.New))
			res.set("sim.churn_heaponly_ns", probeChurn(sim.NewHeapOnly))
		}},
		{"routing", func() { probeRouting(res) }},
		{"core", func() { probeDetectors(res) }},
		{"gates", func() { probeGates(res) }},
		{"packet", func() { probeArena(res) }},
		{"obs", func() { err = probeRecorders(res, outDir) }},
		{"sweep", func() { probeSweep(res) }},
		{"serve", func() { err = probeServe(res) }},
	} {
		runtime.GC()
		s := tr.begin("probe."+p.name, parent, -1)
		p.run()
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// probeChurn is push/pop/cancel/reschedule against a scheduler holding
// 16k pending events whose fire times spread far beyond the wheel
// horizon: the deep-queue regime of the fat-tree workloads, and the
// ablation pair hybrid vs heap-only.
func probeChurn(mk func() *sim.Scheduler) float64 {
	const depth, span, churn = 1 << 14, 1 << 30, 50000
	r := rng.New(11)
	s := mk()
	ids := make([]sim.EventID, depth)
	slots := make([]int, depth)
	var refill func(any)
	refill = func(a any) {
		i := a.(*int)
		ids[*i] = s.AtArg(s.Now()+1+units.Time(r.Intn(span)), refill, a)
	}
	for i := range ids {
		slots[i] = i
		ids[i] = s.AtArg(units.Time(1+r.Intn(span)), refill, &slots[i])
	}
	gap := units.Time(span / depth)
	var ops uint64
	samples := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		before := s.Processed()
		ops = 0
		t0 := time.Now()
		for k := 0; k < churn; k++ {
			switch k & 3 {
			case 0:
				s.Reschedule(ids[r.Intn(depth)], s.Now()+1+units.Time(r.Intn(span)))
				ops++
			case 1:
				j := r.Intn(depth)
				s.Cancel(ids[j])
				ids[j] = s.AtArg(s.Now()+1+units.Time(r.Intn(span)), refill, &slots[j])
				ops += 2
			default: // pops about one event, which pushes itself back
				s.RunUntil(s.Now() + gap)
			}
		}
		d := time.Since(t0)
		ops += 2 * (s.Processed() - before)
		samples = append(samples, float64(d.Nanoseconds())/float64(ops))
	}
	s.Stop()
	return quietFloor(samples)
}

var probeSink int

func probeRouting(res *runResult) {
	ft8 := topo.NewFatTree(8, 40*units.Gbps, 4*units.Microsecond)
	hit := routing.NewLazy(ft8.Topology, routing.FatTreeColumns(ft8), 0)
	for _, h := range ft8.HostList {
		hit.Choices(ft8.HostList[0], h)
	}
	edges := ft8.Edges[0]
	const lookups = 100000
	res.set("routing.lookup_hit_ns", perCall(probeBatches, lookups, func() {
		n := 0
		for i := 0; i < lookups; i++ {
			n += len(hit.Choices(edges[i&3], ft8.HostList[(i*7)&127]))
		}
		probeSink += n
	}))

	// A cap of 8 against 1024 destinations visited in turn: every lookup
	// rebuilds a column from the structural source.
	ft16 := topo.NewFatTree(16, 40*units.Gbps, 4*units.Microsecond)
	miss := routing.NewLazy(ft16.Topology, routing.FatTreeColumns(ft16), 8)
	next := 0
	const builds = 256
	res.set("routing.column_build_ns", perCall(probeBatches, builds, func() {
		for i := 0; i < builds; i++ {
			probeSink += len(miss.Choices(ft16.HostList[0], ft16.HostList[next]))
			next = (next + 1) % len(ft16.HostList)
		}
	}))

	res.set("routing.eager_build_ms", perCall(probeBatches, 1, func() {
		probeSink += routing.BuildShortestPath(ft8.Topology).NumHosts()
	})/1e6)
}

func probeDetectors(res *runResult) {
	const calls = 200000
	var pkt packet.Packet
	tcd := core.NewTCD(core.TCDConfig{MaxTon: 34 * units.Microsecond, CongThresh: 200 * units.KB, LowThresh: 10 * units.KB})
	now := units.Time(0)
	res.set("core.tcd_dequeue_ns", perCall(probeBatches, calls, func() {
		for i := 0; i < calls; i++ {
			now += 200 * units.Nanosecond
			if i&1023 == 0 { // an OFF period every thousand packets
				tcd.OnOffStart(now)
				now += 5 * units.Microsecond
				tcd.OnOffEnd(now)
			}
			pkt.Code = 0
			tcd.OnDequeue(now, &pkt, units.ByteSize(i&255)*units.KB)
		}
	}))
	red := core.NewRED(core.DefaultREDConfig(), rng.New(5))
	res.set("core.ecn_dequeue_ns", perCall(probeBatches, calls, func() {
		for i := 0; i < calls; i++ {
			pkt.Code = 0
			red.OnDequeue(now, &pkt, units.ByteSize(i&255)*units.KB)
		}
	}))
	probeSink += int(pkt.Code)
}

// probeGates drives the egress gates of an idle two-switch fabric: the
// per-packet CanSend/OnSend pair, with a PAUSE/RESUME or a credit update
// every 64 packets.
func probeGates(res *runResult) {
	const calls = 200000
	gate := func(install func(*fabric.Network)) fabric.TxGate {
		db := topo.NewDumbbell(1, 40*units.Gbps, 4*units.Microsecond)
		net := fabric.New(sim.New(), db.Topology, fabric.DefaultConfig())
		install(net)
		return net.PortToward(db.Left, db.Right).Gate()
	}
	pg := gate(func(n *fabric.Network) { pfc.Install(n, pfc.DefaultConfig()) })
	res.set("pfc.gate_ns", perCall(probeBatches, calls, func() {
		sent := 0
		for i := 0; i < calls; i++ {
			if i&63 == 0 {
				pg.HandleCtrl(0, fabric.CtrlFrame{Kind: fabric.CtrlPause})
				pg.HandleCtrl(0, fabric.CtrlFrame{Kind: fabric.CtrlResume})
			}
			if pg.CanSend(0, units.KB) {
				pg.OnSend(0, units.KB)
				sent++
			}
		}
		probeSink += sent
	}))
	cfg := cbfc.DefaultConfig()
	cg := gate(func(n *fabric.Network) { cbfc.Install(n, cfg) })
	var granted, used int64
	res.set("cbfc.gate_ns", perCall(probeBatches, calls, func() {
		for i := 0; i < calls; i++ {
			if i&63 == 0 {
				granted = used + int64(cfg.Buffer)
				cg.HandleCtrl(0, fabric.CtrlFrame{Kind: fabric.CtrlCredit, FCCL: granted})
			}
			if cg.CanSend(0, units.KB) {
				cg.OnSend(0, units.KB)
				used += int64(units.KB)
			}
		}
	}))
}

func probeArena(res *runResult) {
	const calls, inFlight = 200000, 32
	var a packet.Arena
	var held [inFlight]*packet.Packet
	res.set("packet.arena_getput_ns", perCall(probeBatches, calls, func() {
		for i := 0; i < calls/inFlight; i++ {
			for j := range held {
				held[j] = a.Get()
			}
			for j := range held {
				a.Put(held[j])
			}
		}
	}))
}

// probeRecorders prices obs recording: per call for the histogram, the
// ring and the spill sink, and as a whole-run ratio on the incast-cee op
// with telemetry and a spill sink attached. Recording is off in all four
// workloads, so a recorder change must show here and nowhere else.
func probeRecorders(res *runResult, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	const calls = 200000
	h := obs.NewHist()
	x := uint64(88172645463325252)
	res.set("obs.hist_observe_ns", perCall(probeBatches, calls, func() {
		for i := 0; i < calls; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			h.Observe(int64(x >> 40))
		}
	}))
	ev := obs.Event{Kind: obs.KindMarkUE, Port: "edge0_0->agg0_0", Flow: 7, Val: 120000}
	ring := obs.NewRing(1 << 16)
	res.set("obs.ring_record_ns", perCall(probeBatches, calls, func() {
		for i := 0; i < calls; i++ {
			ev.At += units.Nanosecond
			ring.Record(ev)
		}
	}))

	path := filepath.Join(outDir, "probe_spill.jsonl")
	defer os.Remove(path)
	spill, err := obs.NewSpill(path, obs.SpillOptions{})
	if err != nil {
		return fmt.Errorf("spill probe: %w", err)
	}
	const spillCalls = 20000
	res.set("obs.spill_record_ns", perCall(probeBatches, spillCalls, func() {
		for i := 0; i < spillCalls; i++ {
			ev.At += units.Nanosecond
			spill.Record(ev)
		}
	}))
	if err := spill.Close(); err != nil {
		return fmt.Errorf("spill probe: %w", err)
	}

	var on, off []float64
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		for _, record := range []bool{false, true} {
			cfg := (&incast{env: &env{seed: 1}}).config(50*units.Millisecond, obs.Config{})
			var sink *obs.Spill
			if record {
				if sink, err = obs.NewSpill(path, obs.SpillOptions{}); err != nil {
					return fmt.Errorf("recording probe: %w", err)
				}
				cfg.Obs = obs.Config{Rec: sink, Telemetry: obs.NewTelemetry(nil)}
			}
			runtime.GC()
			t0 := time.Now()
			r := exp.Observe(cfg)
			buf.Reset()
			err := r.WriteJSON(&buf)
			if sink != nil && err == nil {
				err = sink.Close()
			}
			d := time.Since(t0).Seconds()
			if err != nil {
				return fmt.Errorf("recording probe: %w", err)
			}
			if record {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	res.set("obs.record_overhead_ratio", quietFloor(on)/quietFloor(off))
	return nil
}

// probeSweep is the repo's multi-core number: the same 8-seed table3
// sweep on two workers against one.
func probeSweep(res *runResult) {
	specs := sweep.Grid{Exps: []string{"table3"}, Seeds: sweep.Seq(1, 8)}.Specs()
	fn := func(s sweep.Spec) []*exp.Result {
		r, _ := exp.Table3(3*units.Millisecond, s.Seed)
		return []*exp.Result{r}
	}
	var one, two []float64
	for i := 0; i < 4; i++ {
		for _, workers := range []int{1, 2} {
			runtime.GC()
			t0 := time.Now()
			sweep.Run(context.Background(), specs, fn, sweep.Options{Parallel: workers})
			if d := time.Since(t0).Seconds(); workers == 1 {
				one = append(one, d)
			} else {
				two = append(two, d)
			}
		}
	}
	res.set("sweep.speedup_2w", quietFloor(one)/quietFloor(two))
}

// probeServe takes the daemon apart: spec parse + hash, the executor
// without the daemon around it, and the warm path without TCP.
func probeServe(res *runResult) error {
	warm := warmBodies(1)
	var perr error
	res.set("serve.parse_hash_us", perCall(probeBatches, 10*len(warm), func() {
		for i := 0; i < 10; i++ {
			for _, b := range warm {
				spec, err := serve.ParseJobSpec(b)
				if err != nil {
					perr = err
					return
				}
				probeSink += len(spec.Hash())
			}
		}
	})/1000)
	if perr != nil {
		return fmt.Errorf("parse probe: %w", perr)
	}

	// The cold mix of one round, run directly: the median job, as the
	// end-to-end cold latency is a median.
	var execMs []float64
	for b := 0; b < 4; b++ {
		var jobs []float64
		for _, rq := range schedule(1, b) {
			if !rq.cold {
				continue
			}
			spec, err := serve.ParseJobSpec(rq.body)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := serve.CatalogExec(context.Background(), spec, nil); err != nil {
				return fmt.Errorf("exec probe: %w", err)
			}
			jobs = append(jobs, ms(time.Since(t0)))
		}
		execMs = append(execMs, median(jobs))
	}
	res.set("serve.exec_cold_ms", quietFloor(execMs))

	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	h := srv.Handler()
	submit := func(body []byte) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: status %d for %s", rec.Code, body)
		}
		return nil
	}
	for _, b := range warm {
		if err := submit(b); err != nil {
			return err
		}
	}
	var herr error
	res.set("serve.warm_handler_us", perCall(probeBatches, 4*len(warm), func() {
		for i := 0; i < 4; i++ {
			for _, b := range warm {
				if err := submit(b); err != nil {
					herr = err
				}
			}
		}
	})/1000)
	return herr
}

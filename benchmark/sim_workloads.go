package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"time"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
	"github.com/tcdnet/tcd/internal/workload"
)

// zeroHorizon makes an op build everything and simulate nothing: every
// flow starts later than one nanosecond.
const zeroHorizon = units.Nanosecond

// simRunner is the part the simulator scenarios share: encode the result,
// time the stages, and hold every op to the first op's bytes.
type simRunner struct {
	rss   *rssMeter
	buf   bytes.Buffer
	ref   [sha256.Size]byte
	have  bool
	ticks []time.Time
}

// Write receives the scheduler's progress lines, one per simulated
// millisecond: the run's only hook that fires at fixed points of simulated
// time, so the wall time between two of them is the same work in every op.
func (s *simRunner) Write(line []byte) (int, error) {
	s.ticks = append(s.ticks, time.Now())
	s.rss.sample()
	return len(line), nil
}

// progress asks the run for a tick per simulated millisecond, which is
// also what the daemon asks of every job it runs.
func (s *simRunner) progress(o obs.Config) obs.Config {
	o.ProgressEvery, o.ProgressOut = units.Millisecond, s
	return o
}

// run performs one op: call builds and runs the scenario, the result is
// encoded as the CLI's -json export would, and check (if any) audits the
// result's scalars.
func (s *simRunner) run(tr *tracer, id int, call func() *exp.Result, check func(*exp.Result) string) opResult {
	s.ticks = s.ticks[:0]
	o := tr.begin("op", -1, id)
	c := tr.begin("exp.run", o, id)
	t0 := time.Now()
	res := call()
	t1 := time.Now()
	tr.end(c)
	e := tr.begin("exp.encode", o, id)
	s.buf.Reset()
	err := res.WriteJSON(&s.buf)
	t2 := time.Now()
	tr.end(e)
	k := tr.begin("check", o, id)
	out := opResult{
		ns:       t2.Sub(t0).Nanoseconds(),
		encodeNs: t2.Sub(t1).Nanoseconds(),
		bytes:    s.buf.Len(),
		crc:      crc32.ChecksumIEEE(s.buf.Bytes()),
	}
	// Stages: build and the first millisecond, every further simulated
	// millisecond, and from the last tick to the end of the encode.
	prev := t0
	for _, t := range s.ticks {
		out.stages = append(out.stages, t.Sub(prev).Nanoseconds())
		tr.add("sim.ms", c, id, prev, t)
		prev = t
	}
	out.stages = append(out.stages, t2.Sub(prev).Nanoseconds())
	sum := sha256.Sum256(s.buf.Bytes())
	switch {
	case err != nil:
		out.fail = "encoding result: " + err.Error()
	case !s.have:
		s.ref, s.have = sum, true
	case sum != s.ref:
		out.fail = fmt.Sprintf("result bytes differ from the first op's (sha256 %x, want %x)", sum[:6], s.ref[:6])
	}
	if out.fail == "" && check != nil {
		out.fail = check(res)
	}
	tr.end(k)
	tr.end(o)
	return out
}

// audit runs one op with a metrics registry attached and returns the
// registry folded by metric name. The registry only reads counters at the
// end of the run, so the audited op must produce the reference bytes.
func (s *simRunner) audit(call func(obs.Config) *exp.Result) (res *exp.Result, sums, series map[string]float64, fail string) {
	reg := obs.NewRegistry()
	out := s.run(nil, -1, func() *exp.Result {
		res = call(obs.Config{Metrics: reg})
		return res
	}, nil)
	if out.fail != "" {
		return res, nil, nil, out.fail
	}
	sums, series, err := foldRegistry(reg)
	if err != nil {
		return res, nil, nil, err.Error()
	}
	return res, sums, series, ""
}

// foldRegistry sums every series of a metric name over its labels and
// counts the series. The registry has no iteration API, so this goes
// through its JSON export.
func foldRegistry(reg *obs.Registry) (sums, series map[string]float64, err error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil, nil, err
	}
	var doc struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, nil, fmt.Errorf("decoding registry export: %w", err)
	}
	sums, series = make(map[string]float64), make(map[string]float64)
	for _, m := range []map[string]float64{doc.Counters, doc.Gauges} {
		keys := make([]string, 0, len(m))
		for key := range m {
			keys = append(keys, key)
		}
		sort.Strings(keys) // float sums must not depend on map order
		for _, key := range keys {
			name, _, _ := strings.Cut(key, "{")
			sums[name] += m[key]
			series[name]++
		}
	}
	return sums, series, nil
}

// layerCounts maps the folded registry to the benchmark's count names.
func layerCounts(sums, series map[string]float64) (map[string]float64, string) {
	c := map[string]float64{
		"sim.events":           sums["sched_events"],
		"sim.pending_end":      sums["sched_pending_events"],
		"fabric.tx_packets":    sums["port_tx_packets"],
		"fabric.ctrl_frames":   sums["port_ctrl_sent"],
		"fabric.pause_time_ms": sums["port_pause_time_us"] / 1000,
		"pfc.pauses_sent":      sums["pfc_pauses_sent"],
		"pfc.resumes_sent":     sums["pfc_resumes_sent"],
		"pfc.violations":       sums["pfc_violations"],
		"cbfc.updates_sent":    sums["cbfc_updates_sent"],
		"cbfc.violations":      sums["cbfc_violations"],
		"core.marked_ce":       sums["port_marked_ce"],
		"core.marked_ue":       sums["port_marked_ue"],
		"host.flows_generated": series["flow_rx_bytes"],
		"host.flows_completed": series["flow_fct_us"],
	}
	if v := c["pfc.violations"] + c["cbfc.violations"]; v != 0 {
		return c, fmt.Sprintf("losslessness: %v buffer violations", v)
	}
	return c, ""
}

// incast is the §3.1 single-congestion-point scenario stretched so the
// bursts last the whole horizon.
type incast struct {
	env *env
	simRunner
}

func (s *incast) config(horizon units.Time, o obs.Config) exp.ObserveConfig {
	cfg := exp.DefaultObserveConfig(exp.CEE, exp.DetTCD, false)
	cfg.Horizon = horizon
	cfg.BurstRounds = 250
	cfg.Seed = s.env.seed
	cfg.Obs = s.progress(o)
	return cfg
}

// generate has nothing to draw: the scenario's traffic is the paper's
// fixed burst schedule, and the seed feeds the rig's random streams.
func (s *incast) generate() error { return nil }

func (s *incast) setupStep() error {
	var buf bytes.Buffer
	return exp.Observe(s.config(zeroHorizon, obs.Config{})).WriteJSON(&buf)
}

func (s *incast) op(tr *tracer, id int) opResult {
	return s.run(tr, id, func() *exp.Result {
		return exp.Observe(s.config(50*units.Millisecond, obs.Config{}))
	}, nil)
}

func (s *incast) counts() (map[string]float64, string) {
	_, sums, series, fail := s.audit(func(o obs.Config) *exp.Result {
		return exp.Observe(s.config(50*units.Millisecond, o))
	})
	if fail != "" {
		return nil, fail
	}
	return layerCounts(sums, series)
}

func (s *incast) close() {}

// ftParams fixes one fat-tree workload.
type ftParams struct {
	k        int
	kind     exp.FabricKind
	cc       exp.CCKind
	workload string
	flows    int
	horizon  units.Time
	// hopPackets is the offered work every seed's trace is held to, in
	// MTU packets times hops (see fatTree.generate).
	hopPackets int64
}

var (
	ft8 = ftParams{
		k: 8, kind: exp.CEE, cc: exp.CCDCQCNTCD, workload: "hadoop",
		flows: 2000, horizon: 20 * units.Millisecond, hopPackets: 2_000_000,
	}
	ft16 = ftParams{
		k: 16, kind: exp.IB, cc: exp.CCIBCCTCD, workload: "mpiio",
		flows: 2000, horizon: 20 * units.Millisecond, hopPackets: 2_260_000,
	}
)

// fatTree is a realistic-workload run on a k-ary fat-tree replaying a
// trace the benchmark generated.
type fatTree struct {
	env *env
	p   ftParams
	ft  *topo.FatTree
	simRunner
	trace []workload.Flow
}

func newFatTree(e *env, p ftParams) *fatTree {
	return &fatTree{env: e, p: p, ft: topo.NewFatTree(p.k, 40*units.Gbps, 4*units.Microsecond), simRunner: simRunner{rss: e.rss}}
}

// referenceSeed draws the Hadoop trace every seed relabels.
const referenceSeed = 20210823

// draw generates one candidate trace with the repo's own generators.
func (s *fatTree) draw(seed, try uint64) []workload.Flow {
	r := rng.New(seed*0x9e3779b97f4a7c15 + try)
	hosts := s.ft.HostList
	if s.p.workload == "mpiio" {
		// One I/O server per edge switch, as exp.FatTree's own mpiio
		// generator places them.
		half := s.p.k / 2
		var servers []packet.NodeID
		for i := 0; i < len(hosts); i += half {
			servers = append(servers, hosts[i])
		}
		return workload.MPIIO(r, workload.MPIIOConfig{
			Hosts: hosts, IOServers: servers, IOClientFrac: 0.25,
			Messages: s.p.flows, IOFrac: 0.1, Horizon: s.p.horizon / 2,
		})
	}
	return workload.Poisson(r, workload.PoissonConfig{
		Hosts: hosts, CDF: workload.Hadoop(), Load: 0.6, AccessRate: 40 * units.Gbps,
		Horizon: s.p.horizon / 2, MaxFlows: s.p.flows,
	})
}

// hopPackets is the work a trace offers the fabric: MTU packets times the
// hops of each flow's shortest path (2 within an edge switch, 4 within a
// pod, 6 across pods).
func (s *fatTree) hopPackets(trace []workload.Flow) int64 {
	var total int64
	for _, f := range trace {
		sp, se, _ := s.ft.HostPos(f.Src)
		dp, de, _ := s.ft.HostPos(f.Dst)
		hops := int64(6)
		switch {
		case sp == dp && se == de:
			hops = 2
		case sp == dp:
			hops = 4
		}
		total += (int64(f.Size) + 999) / 1000 * hops
	}
	return total
}

// budgeted redraws until a trace offers the workload's nominal work to
// within half a percent. Free draws of 2000 heavy-tailed flows differ by
// a tenth in offered bytes, which would read as a tenth of run-to-run
// noise on every metric; holding the offered work fixed lets runs with
// different seeds be compared (README, "Seeds").
func (s *fatTree) budgeted(seed uint64) ([]workload.Flow, error) {
	for try := uint64(0); try < 10000; try++ {
		trace := s.draw(seed, try)
		if d := s.hopPackets(trace) - s.p.hopPackets; d*200 <= s.p.hopPackets && -d*200 <= s.p.hopPackets {
			return trace, nil
		}
	}
	return nil, fmt.Errorf("no trace within the work budget in 10000 draws (seed %d)", seed)
}

// relabel maps a trace through a random symmetry of the fat-tree: pods
// are permuted, edge switches within each pod, and hosts under each edge
// switch. Flow-hashed ECMP picks the same relative up-link for the same
// flow, so the relabelled trace makes the same traffic pattern on other
// switches: every seed's run processes the same events (to within a
// handful in three million, where ties at one timestamp order differently)
// over different nodes, ports and route columns.
func (s *fatTree) relabel(trace []workload.Flow, seed uint64) []workload.Flow {
	r := rng.New(seed)
	half := s.p.k / 2
	hosts := s.ft.HostList
	image := make(map[packet.NodeID]packet.NodeID, len(hosts))
	pods := r.Perm(s.p.k)
	for p := 0; p < s.p.k; p++ {
		edges := r.Perm(half)
		for e := 0; e < half; e++ {
			under := r.Perm(half)
			for h := 0; h < half; h++ {
				image[hosts[(p*half+e)*half+h]] = hosts[(pods[p]*half+edges[e])*half+under[h]]
			}
		}
	}
	out := make([]workload.Flow, len(trace))
	for i, f := range trace {
		f.Src, f.Dst = image[f.Src], image[f.Dst]
		out[i] = f
	}
	return out
}

func (s *fatTree) generate() error {
	if s.p.workload == "mpiio" {
		trace, err := s.budgeted(s.env.seed)
		s.trace = trace
		return err
	}
	// Hadoop on DCQCN is chaotic: where the few multi-megabyte flows land
	// decides how much of them finishes inside the horizon, and redrawing
	// as little as the endpoints of the sub-4 KB flows moves the event
	// count by several percent, at a fixed byte budget. So every seed runs
	// one reference draw, relabelled through a symmetry of the topology.
	ref, err := s.budgeted(referenceSeed)
	if err != nil {
		return err
	}
	s.trace = s.relabel(ref, s.env.seed)
	return nil
}

func (s *fatTree) config(horizon units.Time, o obs.Config) exp.FatTreeConfig {
	cfg := exp.DefaultFatTreeConfig(s.p.kind, exp.DetTCD, s.p.cc, s.p.workload)
	cfg.K = s.p.k
	cfg.Trace = s.trace
	cfg.Horizon = horizon
	cfg.Seed = s.env.seed
	if s.p.workload == "hadoop" {
		cfg.Seed = referenceSeed // the ECMP salt is part of the reference pattern
	}
	cfg.Obs = s.progress(o)
	return cfg
}

func (s *fatTree) setupStep() error {
	var buf bytes.Buffer
	return exp.FatTree(s.config(zeroHorizon, obs.Config{})).Res.WriteJSON(&buf)
}

// checkFlows holds a fat-tree result to losslessness and to finishing
// nine flows in ten.
func checkFlows(res *exp.Result) string {
	sc := res.Scalars
	if v := sc["buffer_violations"]; v != 0 {
		return fmt.Sprintf("losslessness: %v buffer violations", v)
	}
	if sc["completed"] < 0.9*sc["generated"] {
		return fmt.Sprintf("only %v of %v flows completed", sc["completed"], sc["generated"])
	}
	return ""
}

func (s *fatTree) op(tr *tracer, id int) opResult {
	return s.run(tr, id, func() *exp.Result {
		return exp.FatTree(s.config(s.p.horizon, obs.Config{})).Res
	}, checkFlows)
}

func (s *fatTree) counts() (map[string]float64, string) {
	res, sums, series, fail := s.audit(func(o obs.Config) *exp.Result {
		return exp.FatTree(s.config(s.p.horizon, o)).Res
	})
	if fail != "" {
		return nil, fail
	}
	c, fail := layerCounts(sums, series)
	c["host.flows_generated"] = res.Scalars["generated"]
	c["host.flows_completed"] = res.Scalars["completed"]
	c["routing.cols_materialized"] = res.Scalars["route_cols_materialized"]
	c["routing.cols_evicted"] = res.Scalars["route_cols_evicted"]
	c["routing.cols_live"] = res.Scalars["route_cols_live"]
	c["routing.table_bytes"] = res.Scalars["route_table_bytes"]
	// Every endpoint is a destination: data goes to Dst, CNPs back to Src.
	ends := make(map[packet.NodeID]bool)
	for _, f := range s.trace {
		ends[f.Src], ends[f.Dst] = true, true
	}
	c["routing.rebuild_ratio"] = c["routing.cols_materialized"] / float64(len(ends))
	return c, fail
}

func (s *fatTree) close() {}

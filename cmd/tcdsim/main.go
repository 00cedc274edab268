// Command tcdsim runs the paper's experiments on the simulator and
// prints the rows/series each table or figure reports.
//
// Usage:
//
//	tcdsim -list
//	tcdsim -exp fig3 -fabric cee
//	tcdsim -exp table3 -horizon 60ms
//	tcdsim -exp fig16 -k 10 -flows 40000 -workload hadoop -full
//	tcdsim -exp fig12 -series P2_queue
//
// Experiments run at a laptop-friendly scale by default; -full raises
// the paper-scale parameters (k=10/16 fat-trees, tens of thousands of
// flows) at the cost of minutes of wall time.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/exp/sweep"
	"github.com/tcdnet/tcd/internal/fault"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/oracle"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// die prints a diagnostic and exits: code 2 for bad usage, 1 for a
// failed run or export.
func die(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments with the axes each accepts")
		name     = flag.String("exp", "", "experiment to run (see -list)")
		fabric   = flag.String("fabric", "cee", "fabric kind: cee or ib")
		seed     = flag.Uint64("seed", 1, "random seed")
		horizon  = flag.Duration("horizon", 0, "simulation horizon override (e.g. 60ms); wins over -full")
		full     = flag.Bool("full", false, "paper-scale parameters (slow)")
		k        = flag.Int("k", 0, "fat-tree arity override")
		flows    = flag.Int("flows", 0, "flow-count override")
		workload = flag.String("workload", "", "fat-tree workload (menu and default per experiment: see -list)")
		series   = flag.String("series", "", "also dump this time series (name as shown in output)")
		csvdir   = flag.String("csvdir", "", "write every collected series as CSV files into this directory")
		arch     = flag.String("arch", "", "switch architecture for observation runs (menu and default: see -list)")
		runs     = flag.Int("runs", 1, "repeat the experiment over this many consecutive seeds and fold statistics")
		faults   = flag.String("faults", "", "JSON fault schedule (benign and adversarial kinds) injected into the experiments -list marks with faults")

		adversarial = flag.String("adversarial", "", "battery spec for -exp adversarial (empty = the committed default battery)")
		oracleOut   = flag.String("oracle-out", "", "write the adversarial oracle report (scores, aggregates, contradictions) as JSON to this file")
		parallel    = flag.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS); runs stay deterministic per seed")
		shard       = flag.String("shard", "", `run only shard i of an n-way sweep split, format "i/n" (0-based; one process per shard)`)

		topoStats = flag.Bool("topo-stats", false, "build only the topology and route table (no fabric, no workload), print size and memory figures, then exit")
		topoKind  = flag.String("topo", "fattree", "-topo-stats topology: fattree (-k) or leafspine (-leaves/-spines/-hostsper)")
		leaves    = flag.Int("leaves", 4, "leaf-spine leaf switch count (-topo-stats)")
		spines    = flag.Int("spines", 4, "leaf-spine spine switch count (-topo-stats)")
		hostsPer  = flag.Int("hostsper", 8, "leaf-spine hosts per leaf (-topo-stats)")

		traceOut     = flag.String("trace-out", "", "stream the structured event trace as JSONL to this file (spill-to-disk; observation experiments)")
		traceGzip    = flag.Bool("trace-gzip", false, "gzip-compress the -trace-out stream")
		traceChunkMB = flag.Int("trace-chunk-mb", 64, "rotate -trace-out into numbered chunks of this many MB")
		traceMaxMB   = flag.Int("trace-max-mb", 0, "cap total -trace-out disk usage in MB: recording stops at the cap, keeping the oldest events (0 = unlimited)")
		telemetry    = flag.Bool("telemetry", false, "fold the event stream into bounded-memory histograms (FCT, queue depth, pause/stall durations, mark gaps)")
		httpAddr     = flag.String("http", "", "serve live /metrics (Prometheus text), /progress (JSON) and /debug/pprof on this address during the run")
		httpLinger   = flag.Duration("http-linger", 0, "keep the -http endpoint up this long after the run finishes")
		metricsOut   = flag.String("metrics-out", "", "write the labeled metrics registry as JSON to this file")
		progress     = flag.Bool("progress", false, "print sim-vs-wall progress lines to stderr during the run")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		jsonOut      = flag.String("json", "", `serialize results as JSON to this file ("-" for stdout)`)
	)
	flag.Parse()

	if *topoStats {
		runTopoStats(*topoKind, *k, *leaves, *spines, *hostsPer)
		return
	}
	if *list || *name == "" {
		fmt.Println("experiments:")
		for _, sc := range exp.Scenarios {
			fmt.Printf("  %-8s %s\n", sc.Name, sc.Desc)
			if axes := sc.Axes(); axes != "" {
				fmt.Printf("  %-8s   [%s]\n", "", axes)
			}
		}
		if !*list {
			os.Exit(2)
		}
		return
	}

	// Flags parse into the one parameter shape; the scenario's declared
	// menus, not this file, decide what each flag may say.
	sc := exp.Lookup(strings.ToLower(*name))
	if sc == nil {
		die(2, "unknown experiment %q; try -list", *name)
	}
	p := exp.Params{
		Seed:     *seed,
		Full:     *full,
		K:        *k,
		Flows:    *flows,
		Workload: strings.ToLower(*workload),
		Arch:     strings.ToLower(*arch),
	}
	if *horizon > 0 {
		p.Horizon = units.Time(horizon.Nanoseconds()) * units.Nanosecond
	}
	var err error
	if p.Fabric, err = exp.ParseFabric(strings.ToLower(*fabric)); err != nil {
		die(2, "%v", err)
	}
	if err := sc.Check(p); err != nil {
		die(2, "%v", err)
	}
	if *faults != "" {
		if p.Faults, err = fault.LoadSpec(*faults); err != nil {
			die(2, "%v", err)
		}
	}
	if *adversarial != "" {
		if p.Battery, err = exp.LoadBattery(*adversarial); err != nil {
			die(2, "%v", err)
		}
	}
	shardIdx, shardTotal := 0, 1
	if *shard != "" {
		if n, err := fmt.Sscanf(*shard, "%d/%d", &shardIdx, &shardTotal); n != 2 || err != nil ||
			shardTotal < 1 || shardIdx < 0 || shardIdx >= shardTotal {
			die(2, "bad -shard %q: want i/n with 0 <= i < n", *shard)
		}
	}

	var spill *obs.Spill
	if *traceOut != "" {
		spill, err = obs.NewSpill(*traceOut, obs.SpillOptions{
			ChunkBytes: int64(*traceChunkMB) << 20,
			MaxBytes:   int64(*traceMaxMB) << 20,
			Gzip:       *traceGzip,
		})
		if err != nil {
			die(1, "trace: %v", err)
		}
		p.Obs.Rec = spill
	}
	if *telemetry || *httpAddr != "" {
		// The live endpoint serves telemetry-derived metrics, so -http
		// implies -telemetry.
		p.Obs.Telemetry = obs.NewTelemetry(nil)
	}
	var live *obs.Live
	if *httpAddr != "" {
		if live, err = obs.ServeLive(*httpAddr); err != nil {
			die(1, "http: %v", err)
		}
		p.Obs.Live = live
		fmt.Fprintf(os.Stderr, "live: http://%s (/metrics, /progress, /debug/pprof)\n", live.Addr())
	}
	if *metricsOut != "" {
		p.Obs.Metrics = obs.NewRegistry()
	}
	if *progress {
		p.Obs.ProgressEvery = units.Millisecond
		p.Obs.ProgressOut = os.Stderr
	}
	stopProfile := func() {}
	if *cpuprofile != "" {
		if stopProfile, err = obs.StartCPUProfile(*cpuprofile); err != nil {
			die(1, "cpuprofile: %v", err)
		}
	}

	start := time.Now()
	if *runs > 1 || *shard != "" {
		code := runSweep(sc, p, *runs, *parallel, *progress, *jsonOut, *csvdir, shardIdx, shardTotal)
		stopProfile()
		fmt.Fprintf(os.Stderr, "(%s sweep, wall %v)\n", sc.Name, time.Since(start).Round(time.Millisecond))
		os.Exit(code)
	}
	// Under -json - stdout carries the document alone; what a person reads
	// goes to stderr.
	quiet := *jsonOut == "-"
	out := os.Stdout
	if quiet {
		out = os.Stderr
	}
	var results []*exp.Result
	if sc.Battery {
		// The one scenario whose run also yields an oracle report.
		report, rs := exp.AdversarialReport(p)
		printOracle(out, report, *oracleOut)
		results = rs
	} else {
		results = sc.Run(p)
	}
	stopProfile()
	for _, res := range results {
		if !quiet {
			fmt.Print(res.Render())
		}
		if *csvdir != "" {
			if err := res.WriteSeries(*csvdir); err != nil {
				die(1, "csv export: %v", err)
			}
		}
		if *series != "" {
			if s, ok := res.Series[*series]; ok {
				fmt.Fprint(out, s.Render())
			} else if len(res.Series) > 0 {
				names := make([]string, 0, len(res.Series))
				for n := range res.Series {
					names = append(names, n)
				}
				sort.Strings(names)
				fmt.Fprintf(os.Stderr, "series %q not found; available: %s\n", *series, strings.Join(names, ", "))
			}
		}
	}

	if spill != nil {
		if err := spill.Close(); err != nil {
			die(1, "trace export: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events, %d bytes in %d chunk(s) -> %s\n",
			spill.Written(), spill.Bytes(), spill.Chunks(), *traceOut)
		if n := spill.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "trace: disk cap reached, the newest %d events were not recorded (raise -trace-max-mb)\n", n)
		}
	}
	if p.Obs.Metrics != nil {
		if err := exportFile(*metricsOut, p.Obs.Metrics.WriteJSON); err != nil {
			die(1, "metrics export: %v", err)
		}
	}
	if *jsonOut != "" {
		if err := exportFile(*jsonOut, func(w io.Writer) error { return exp.WriteResultsJSON(w, results) }); err != nil {
			die(1, "json export: %v", err)
		}
	}

	fmt.Fprintf(out, "(%s, wall %v)\n", sc.Name, time.Since(start).Round(time.Millisecond))

	if live != nil {
		if *httpLinger > 0 {
			// CI smoke tests (and humans) can scrape the final snapshot
			// before the process exits.
			fmt.Fprintf(os.Stderr, "live: lingering %v on http://%s\n", *httpLinger, live.Addr())
			time.Sleep(*httpLinger)
		}
		live.Close()
	}
}

// printOracle prints the per-detector oracle aggregates of an adversarial
// run to out and, when path is set, writes the full report there.
func printOracle(out io.Writer, report *oracle.Report, path string) {
	dets := make([]string, 0, len(report.PerDetector))
	for det := range report.PerDetector {
		dets = append(dets, det)
	}
	sort.Strings(dets)
	for _, det := range dets {
		agg := report.PerDetector[det]
		fmt.Fprintf(out, "oracle %-10s runs=%d mean_accuracy=%.4f mean_misdetect=%.4f\n",
			det, agg.Runs, agg.MeanAccuracy, agg.MeanMisdetect)
	}
	for _, c := range report.Contradictions {
		fmt.Fprintf(os.Stderr, "oracle: CONTRADICTION: %s\n", c)
	}
	if path != "" {
		if err := report.WriteJSON(path); err != nil {
			die(1, "%v", err)
		}
		fmt.Fprintf(os.Stderr, "oracle: report -> %s\n", path)
	}
}

// runSweep repeats the scenario over n consecutive seeds through
// sweep.Job, the path a daemon job takes, and renders the folded
// per-scalar statistics. Each run owns a private scheduler/RNG/recorder,
// so the job document is byte-identical whatever the worker count, and
// equals the daemon's body for the same spec. Returns the process exit
// code.
func runSweep(sc *exp.Scenario, p exp.Params, n, workers int, progress bool, jsonOut, csvdir string, shardIdx, shardTotal int) int {
	if p.Obs.Rec != nil || p.Obs.Metrics != nil {
		fmt.Fprintln(os.Stderr, "sweep: -trace-out/-metrics-out are single-run sinks and are ignored in sweep mode")
	}
	specs := sweep.Seeds(sc, p, max(n, 1))
	if shardTotal > 1 {
		all := len(specs)
		specs = sweep.Shard(specs, shardIdx, shardTotal)
		fmt.Fprintf(os.Stderr, "sweep: shard %d/%d runs %d of %d specs\n", shardIdx, shardTotal, len(specs), all)
	}
	// Shared trace/metrics sinks would interleave events from
	// concurrently running simulations; sweeps run without them, and
	// sweep.Scenario gives each run a private telemetry fold.
	p.Obs = obs.Config{Telemetry: p.Obs.Telemetry}
	rs := make([]*sweep.RunResult, len(specs))
	done := 0
	opt := sweep.Options{Parallel: workers, OnDone: func(i int, r *sweep.RunResult) {
		rs[i] = r
		done++
		if progress {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d %s (%v)\n",
				done, len(specs), r.Spec, r.Wall.Round(time.Millisecond))
		}
	}}
	doc, err := sweep.Job(context.Background(), sc, p, specs, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}

	if jsonOut != "-" {
		// A one-run job prints as a direct run, a longer one its aggregates.
		shown := doc
		if len(rs) > 1 {
			for _, r := range rs {
				shown = shown[len(r.Results):]
			}
		}
		for _, res := range shown {
			fmt.Print(res.Render())
		}
	}
	if jsonOut != "" {
		if err := exportFile(jsonOut, func(w io.Writer) error { return exp.WriteResultsJSON(w, doc) }); err != nil {
			fmt.Fprintf(os.Stderr, "sweep json export: %v\n", err)
			return 1
		}
	}
	if csvdir != "" {
		if err := exportSweepCSV(csvdir, rs); err != nil {
			fmt.Fprintf(os.Stderr, "sweep csv export: %v\n", err)
			return 1
		}
	}
	return 0
}

// runTopoStats is the hyperscale dry run: build the topology and the
// route table — nothing else, no fabric.Network (whose per-port event
// state would dominate memory at 100k hosts), no workload — and print
// the numbers that decide whether a full run fits in memory. The eager
// estimate extrapolates what BuildShortestPath would allocate for every
// destination at once.
func runTopoStats(kind string, k, leaves, spines, hostsPer int) {
	rate, delay := 40*units.Gbps, 4*units.Microsecond
	var (
		t     *topo.Topology
		rows  routing.RowSource
		label string
	)
	switch strings.ToLower(kind) {
	case "fattree":
		if k <= 0 {
			k = 4
		}
		ft := topo.NewFatTree(k, rate, delay)
		t, rows = ft.Topology, routing.FatTreeColumns(ft)
		label = fmt.Sprintf("fattree k=%d", k)
	case "leafspine":
		ls := topo.NewLeafSpine(leaves, spines, hostsPer, rate, delay)
		t, rows = ls.Topology, routing.LeafSpineColumns(ls)
		label = fmt.Sprintf("leafspine %dx%d, %d hosts/leaf", leaves, spines, hostsPer)
	default:
		die(2, "unknown -topo %q: want fattree or leafspine", kind)
	}
	fmt.Printf("topology   %s\n", label)
	fmt.Printf("nodes      %d\n", len(t.Nodes))
	fmt.Printf("links      %d\n", len(t.Links))
	fmt.Printf("hosts      %d\n", len(t.Hosts()))

	start := time.Now()
	tbl := routing.NewStructural(t, rows)
	build := time.Since(start)

	liveB, eagerB := tbl.LiveBytes(), tbl.EagerBytesEstimate()
	fmt.Println("routes     structural")
	fmt.Printf("build      %v\n", build.Round(time.Microsecond))
	fmt.Printf("table_mb   %.2f\n", float64(liveB)/(1<<20))
	fmt.Printf("eager_mb   %.2f (estimated BFS columns for every destination)\n", float64(eagerB)/(1<<20))
	if liveB > 0 {
		fmt.Printf("ratio      %.1fx\n", float64(eagerB)/float64(liveB))
	}
	fmt.Printf("peak_rss_mb %.1f\n", peakRSSMB())
}

// exportSweepCSV writes the long-format scalar table to dir/sweep.csv and
// each run's time series into a per-seed subdirectory (per-run result
// names collide across seeds, so they cannot share one directory).
func exportSweepCSV(dir string, rs []*sweep.RunResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "sweep.csv")
	if err := exportFile(path, func(w io.Writer) error { return sweep.WriteCSV(w, rs) }); err != nil {
		return err
	}
	for _, r := range rs {
		if r.Err != nil {
			continue
		}
		sub := filepath.Join(dir, fmt.Sprintf("seed-%d", r.Spec.Seed))
		for _, res := range r.Results {
			if err := res.WriteSeries(sub); err != nil {
				return err
			}
		}
	}
	return nil
}

// exportFile writes via fn into path, creating it ("-" = stdout).
func exportFile(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

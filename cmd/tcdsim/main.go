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
	"errors"
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
		seed     = flag.Uint64("seed", 1, "random seed (0 = the default, 1)")
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
		Seed:     exp.SeedOrDefault(*seed),
		Full:     *full,
		K:        *k,
		Flows:    *flows,
		Workload: strings.ToLower(*workload),
		Arch:     strings.ToLower(*arch),
	}
	if *horizon < 0 {
		die(2, "bad -horizon %v: want a duration >= 0 (0 = the scenario's default)", *horizon)
	}
	p.Horizon = units.Time(horizon.Nanoseconds()) * units.Nanosecond
	if *runs < 0 {
		die(2, "bad -runs %d: want a count >= 0 (0 and 1 = one run)", *runs)
	}
	var err error
	if p.Fabric, err = exp.ParseFabric(strings.ToLower(*fabric)); err != nil {
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
	if err := sc.Check(p); err != nil {
		die(2, "%v", err)
	}
	// Checked before any sink file is opened.
	if (*traceOut != "" || *metricsOut != "" || *telemetry) && !sc.Records() {
		die(2, "%s records no trace, metrics or telemetry (see -list); -progress is what reaches it", sc.Name)
	}
	shardIdx, shardTotal := 0, 1
	if *shard != "" {
		if n, err := fmt.Sscanf(*shard, "%d/%d", &shardIdx, &shardTotal); n != 2 || err != nil ||
			shardTotal < 1 || shardIdx < 0 || shardIdx >= shardTotal {
			die(2, "bad -shard %q: want i/n with 0 <= i < n", *shard)
		}
	}
	sweeping := *runs > 1 || *shard != ""
	if sweeping {
		// Checked before any file is opened.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "trace-out", "metrics-out", "series", "oracle-out":
				die(2, "-%s is a single-run sink and cannot be combined with -runs or -shard", f.Name)
			}
		})
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
	if *telemetry {
		p.Obs.Telemetry = obs.NewTelemetry(nil)
	}
	if *metricsOut != "" {
		p.Obs.Metrics = obs.NewRegistry()
	}
	if *progress && !sweeping {
		// The runs of a sweep may overlap, so they report through the
		// job's run lines alone, not the simulator's ticker.
		p.Obs.ProgressEvery = units.Millisecond
		p.Obs.ProgressOut = os.Stderr
	}
	stopProfile := func() {}
	if *cpuprofile != "" {
		if stopProfile, err = obs.StartCPUProfile(*cpuprofile); err != nil {
			die(1, "cpuprofile: %v", err)
		}
	}

	// Every run is a job, as on the daemon: one run, or -runs N seeds
	// (a shard of them under -shard) folded into one document.
	specs := sweep.Seeds(sc, p, max(*runs, 1))
	if shardTotal > 1 {
		all := len(specs)
		specs = sweep.Shard(specs, shardIdx, shardTotal)
		fmt.Fprintf(os.Stderr, "sweep: shard %d/%d runs %d of %d specs\n", shardIdx, shardTotal, len(specs), all)
	}
	fn := sweep.Scenario(sc, p)
	var report *oracle.Report
	if sc.Battery && !sweeping {
		// The one scenario whose run also yields an oracle report.
		fn = func(sweep.Spec) []*exp.Result {
			var rs []*exp.Result
			report, rs = exp.AdversarialReport(p)
			return rs
		}
	}
	opt := sweep.Options{Parallel: *parallel}
	if *progress {
		opt.Progress = os.Stderr
	}
	start := time.Now()
	doc, rs, err := sweep.Job(context.Background(), specs, fn, opt)
	stopProfile()
	if err != nil {
		var bad *exp.InputError
		if errors.As(err, &bad) {
			die(2, "%v", err)
		}
		fmt.Fprintln(os.Stderr, err)
		var panicked interface{ Stack() []byte }
		if errors.As(err, &panicked) {
			os.Stderr.Write(panicked.Stack())
		}
		os.Exit(1)
	}

	// Under -json - stdout carries the document alone; what a person reads
	// goes to stderr.
	quiet := *jsonOut == "-"
	out := os.Stdout
	if quiet {
		out = os.Stderr
	}
	if report != nil {
		printOracle(out, report, *oracleOut)
	}
	// A one-run job prints its results, a longer one its aggregates.
	shown := doc
	if len(rs) > 1 {
		for _, r := range rs {
			shown = shown[len(r.Results):]
		}
	}
	for _, res := range shown {
		if !quiet {
			fmt.Print(res.Render())
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
	if *csvdir != "" {
		if err := exportCSV(*csvdir, rs, sweeping); err != nil {
			die(1, "csv export: %v", err)
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
		if err := exportFile(*jsonOut, func(w io.Writer) error { return exp.WriteResultsJSON(w, doc) }); err != nil {
			die(1, "json export: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "(%s, wall %v)\n", sc.Name, time.Since(start).Round(time.Millisecond))
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
		if k != 0 && (k < 2 || k%2 != 0) {
			die(2, "-topo-stats has no k %d (want an even k >= 2; 0 = default)", k)
		}
		if k == 0 {
			k = 4
		}
		ft := topo.NewFatTree(k, rate, delay)
		t, rows = ft.Topology, routing.FatTreeColumns(ft)
		label = fmt.Sprintf("fattree k=%d", k)
	case "leafspine":
		if leaves < 1 || spines < 1 || hostsPer < 1 {
			die(2, "-topo-stats leafspine needs -leaves, -spines and -hostsper >= 1, got %d, %d, %d", leaves, spines, hostsPer)
		}
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

// exportCSV writes every series of a one-run job into dir. A sweep
// writes the long-format scalar table to dir/sweep.csv and each run's
// series into a per-seed subdirectory instead (result names collide
// across seeds, so they cannot share one directory).
func exportCSV(dir string, rs []*sweep.RunResult, sweeping bool) error {
	if sweeping {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := exportFile(filepath.Join(dir, "sweep.csv"), func(w io.Writer) error { return sweep.WriteCSV(w, rs) }); err != nil {
			return err
		}
	}
	for _, r := range rs {
		sub := dir
		if sweeping {
			sub = filepath.Join(dir, fmt.Sprintf("seed-%d", r.Spec.Seed))
		}
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

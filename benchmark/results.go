package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// manifest says where and how a result was measured.
type manifest struct {
	Rev        string  `json:"rev"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	WarmupOps  int     `json:"warmup_ops"`
	CanaryMs   float64 `json:"bench.canary_ms,omitempty"`
	ClockLevel float64 `json:"bench.clock_level,omitempty"`
	// WallS is the wall time of the whole invocation.
	WallS  float64 `json:"invocation_wall_s"`
	UnixMs int64   `json:"unix_ms"`
}

func newManifest(rev string, seed uint64, seconds int, wall time.Duration) manifest {
	if rev == "" {
		rev = vcsRevision()
	}
	return manifest{
		Rev: rev, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, WarmupOps: warmupOps,
		WallS: wall.Seconds(), UnixMs: time.Now().UnixMilli(),
	}
}

// vcsRevision is the short revision the toolchain stamped into the
// build, or "unknown" outside a repository.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	return "unknown"
}

// record is one run of one workload.
type record struct {
	Manifest  manifest `json:"manifest"`
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Ops       int      `json:"ops"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics are this kind of run's metrics: the workload's end-to-end
	// ones untraced, the per-layer ones traced.
	Metrics map[string]metric `json:"metrics"`
	// Extra is everything else the run measured (an untraced run still
	// audits one op for the exact counts, for instance).
	Extra map[string]metric `json:"extra,omitempty"`
}

// value finds a measurement of the run, contract metric or extra.
func (r *record) value(name string) float64 {
	if m, ok := r.Metrics[name]; ok {
		return m.Value
	}
	return r.Extra[name].Value
}

func newRecord(w *workloadDef, res *runResult, seed uint64, seconds int, traced bool, rev string, wall time.Duration) *record {
	rec := &record{
		Manifest: newManifest(rev, seed, seconds, wall),
		Workload: w.Name, Trace: traced, Ops: res.ops,
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Failures: res.failures,
		Extra: make(map[string]metric),
	}
	rec.Manifest.CanaryMs = res.values["bench.canary_ms"].Value
	rec.Manifest.ClockLevel = res.values["bench.clock_level"].Value
	defs := gated(w.Name)
	if traced {
		defs = contractPerLayer()
	}
	rec.Metrics = pick(res.values, defs)
	for name, m := range res.values {
		if _, ok := rec.Metrics[name]; !ok && m.Value != 0 {
			rec.Extra[name] = m
		}
	}
	return rec
}

// suiteFile is a set of runs: what -selfcheck and -baseline write and
// compare reads.
type suiteFile struct {
	Manifest manifest  `json:"manifest"`
	Runs     []*record `json:"runs"`
	AA       []aaRow   `json:"aa,omitempty"`
	Pass     *bool     `json:"pass,omitempty"`
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// suite runs workloads in child processes, one process per run, so that
// every run has its own heap and its own resident-set high-water mark.
type suite struct {
	seed           uint64
	seconds        int
	outDir, rev    string
	stdout, stderr io.Writer
}

func (s *suite) child(workload string, traced bool) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(s.outDir, "run_"+workload+".json")
	defer os.Remove(path)
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(s.seed), "-seconds", fmt.Sprint(s.seconds),
		fmt.Sprintf("-trace=%t", traced), "-out", path, "-outdir", s.outDir, "-rev", s.rev)
	cmd.Stderr = s.stderr
	runErr := cmd.Run() // a run with failed ops exits 1 but still writes its record
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %v (%w)", workload, runErr, err)
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: decoding run record: %w", workload, err)
	}
	fmt.Fprintf(s.stdout, "ran %-15s trace=%-5t wall_s=%.4f ops_failed=%d (%.0f s)\n", workload, traced,
		rec.value("wall_s"), rec.Failed, rec.Manifest.WallS)
	return &rec, nil
}

// exactCounts are the values that depend on the inputs alone: two runs
// with one seed must agree on them to the last digit.
var exactCounts = []string{
	"exp.result_bytes", "exp.result_crc32", "sim.events", "sim.pending_end",
	"fabric.tx_packets", "fabric.ctrl_frames", "fabric.pause_time_ms",
	"pfc.pauses_sent", "pfc.resumes_sent", "cbfc.updates_sent", "core.marked_ce", "core.marked_ue",
	"host.flows_generated", "host.flows_completed",
	"routing.cols_materialized", "routing.cols_evicted", "routing.cols_live", "routing.table_bytes",
	"serve.cache_hits", "serve.cache_misses", "serve.cache_coalesced", "serve.cache_evicted",
}

// aaRow is one end-to-end metric of one workload measured twice.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// selfcheck is the A/A test: every workload twice with one binary and
// one seed, set A then set B, each end-to-end difference held to the
// metric's bound and each exact count to equality.
func (s *suite) selfcheck(out string) int {
	start := time.Now()
	file := suiteFile{}
	sets := [2]map[string]*record{{}, {}}
	for set := range sets {
		for _, w := range workloads {
			rec, err := s.child(w.Name, false)
			if err != nil {
				fmt.Fprintln(s.stderr, "benchmark:", err)
				return 1
			}
			sets[set][w.Name] = rec
			file.Runs = append(file.Runs, rec)
		}
	}
	pass := true
	fmt.Fprintf(s.stdout, "\n%-15s %-14s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		if a.Failed+b.Failed > 0 {
			pass = false
			fmt.Fprintf(s.stdout, "%-15s ops failed: A %d, B %d\n", w.Name, a.Failed, b.Failed)
		}
		for _, d := range gated(w.Name) {
			row := aaRow{Workload: w.Name, Metric: d.Name, A: a.Metrics[d.Name].Value, B: b.Metrics[d.Name].Value, Bound: d.Bound}
			row.RelDiff = (row.B - row.A) / row.A
			row.OK = math.Abs(row.RelDiff) <= d.Bound
			pass = pass && row.OK
			verdict := ""
			if !row.OK {
				verdict = "  EXCEEDS BOUND"
			}
			fmt.Fprintf(s.stdout, "%-15s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.Name, d.Name, row.A, row.B, 100*row.RelDiff, 100*d.Bound, verdict)
			file.AA = append(file.AA, row)
		}
		for _, name := range exactCounts {
			if av, bv := a.value(name), b.value(name); av != bv {
				pass = false
				fmt.Fprintf(s.stdout, "%-15s %-14s differs between the sets: %v vs %v\n", w.Name, name, av, bv)
			}
		}
	}
	fmt.Fprintf(s.stdout, "selfcheck pass=%t\n", pass)
	file.Pass = &pass
	file.Manifest = newManifest(s.rev, s.seed, s.seconds, time.Since(start))
	if out != "" {
		if err := writeJSONFile(out, &file); err != nil {
			fmt.Fprintln(s.stderr, "benchmark:", err)
			return 1
		}
	}
	if !pass {
		return 1
	}
	return 0
}

// baselineRuns is how many untraced runs of every workload a baseline
// holds.
const baselineRuns = 3

// baseline records the full numbers of a revision: baselineRuns untraced
// runs of every workload, interleaved, and one traced run each.
func (s *suite) baseline(out string) int {
	if out == "" {
		fmt.Fprintln(s.stderr, "benchmark: -baseline needs -out")
		return 2
	}
	start := time.Now()
	file := suiteFile{}
	failed := 0
	for r := 0; r <= baselineRuns; r++ {
		for _, w := range workloads {
			rec, err := s.child(w.Name, r == baselineRuns)
			if err != nil {
				fmt.Fprintln(s.stderr, "benchmark:", err)
				return 1
			}
			failed += rec.Failed
			file.Runs = append(file.Runs, rec)
		}
	}
	file.Manifest = newManifest(s.rev, s.seed, s.seconds, time.Since(start))
	if err := writeJSONFile(out, &file); err != nil {
		fmt.Fprintln(s.stderr, "benchmark:", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// readRuns loads a suite file or a single run's record.
func readRuns(path string) ([]*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file suiteFile
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Runs) > 0 {
		return file.Runs, nil
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil || rec.Workload == "" {
		return nil, fmt.Errorf("%s: neither a suite file nor a run record", path)
	}
	return []*record{&rec}, nil
}

// spreadOf is the run-to-run spread of one side: the quartile distance
// as a share of the median from four runs up, the range below that, and
// NaN for a single run.
func spreadOf(vals []float64) float64 {
	switch {
	case len(vals) >= 4:
		return iqrShare(vals)
	case len(vals) >= 2:
		s := sorted(vals)
		return (s[len(s)-1] - s[0]) / median(vals)
	}
	return math.NaN()
}

// verdict judges one metric of one workload, new against base, by the
// rules of the choosing-metrics guide: worse past the bound is worse; a
// spread wider than the bound leaves it unresolved unless every new run
// beats every base run; a gain counts only beyond the base's own spread.
func verdict(d *metricDef, base, cur []float64) (ratio, spread float64, word string) {
	mb, mc := median(base), median(cur)
	ratio = mc / mb
	spread = math.Max(spreadOf(base), spreadOf(cur)) // NaN if either side is a single run
	gain := 1 - ratio                                // share by which new is better
	if d.Better == "higher" {
		gain = ratio - 1
	}
	allBetter := true
	for _, c := range cur {
		for _, b := range base {
			if (d.Better == "higher") != (c > b) || c == b {
				allBetter = false
			}
		}
	}
	switch {
	case math.IsNaN(spread) || spread > d.Bound:
		if allBetter && !math.IsNaN(spread) {
			return ratio, spread, "better"
		}
		return ratio, spread, "unresolved"
	case gain < -d.Bound:
		return ratio, spread, "worse"
	case gain > spreadOf(base):
		return ratio, spread, "better"
	}
	return ratio, spread, "within bound"
}

// compareMain prints one row per workload and end-to-end metric.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare <base.json> <new.json>")
		return 2
	}
	var sides [2][]*record
	for i, p := range args {
		runs, err := readRuns(p)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		sides[i] = runs
	}
	values := func(runs []*record, workload, name string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(stdout, "%-15s %-14s %14s %14s  %-28s %7s %6s  %s\n", "workload", "metric", "base", "new", "ratio (base)", "spread", "bound", "verdict")
	worse := false
	for _, w := range workloads {
		for _, d := range gated(w.Name) {
			base, cur := values(sides[0], w.Name, d.Name), values(sides[1], w.Name, d.Name)
			if len(base) == 0 || len(cur) == 0 {
				continue
			}
			ratio, spread, word := verdict(&d, base, cur)
			worse = worse || word == "worse"
			basis := fmt.Sprintf("%.4f of %.6g %s, n=%d/%d", ratio, median(base), d.Unit, len(base), len(cur))
			fmt.Fprintf(stdout, "%-15s %-14s %14.6g %14.6g  %-28s %6.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, median(base), median(cur), basis, 100*spread, 100*d.Bound, word)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// Command benchmark is the repo's benchmark: four long workloads timed by
// a quiet-floor rule, checked for correct output, and taken apart layer
// by layer in a separate traced run. See README.md in this directory.
//
//	go run ./benchmark -workload <name> -seed <n> [-seconds <s>] [-trace]
//	go run ./benchmark -selfcheck [-out results/aa_<rev>.json]
//	go run ./benchmark -baseline -out results/baseline_<rev>.json
//	go run ./benchmark compare <base.json> <new.json>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run: incast-cee, ft8-cee-hadoop, ft16-ib-mpiio or daemon-mix")
		seed      = fs.Uint64("seed", 1, "seed the inputs are generated from")
		seconds   = fs.Int("seconds", nominalSeconds, "nominal length of the timed phase; scales the op counts")
		traced    = fs.Bool("trace", false, "record spans, run the layer probes and print the per-layer metrics")
		out       = fs.String("out", "", "also write the result (with manifest) to this file")
		outDir    = fs.String("outdir", "benchmark/out", "directory for span dumps and scratch files")
		rev       = fs.String("rev", "", "revision to record in the manifest (default: the build's VCS stamp)")
		selfcheck = fs.Bool("selfcheck", false, "run every workload twice and hold the differences to the bounds")
		baseline  = fs.Bool("baseline", false, "run every workload (three untraced runs and one traced) and write -out")
		printJSON = fs.Bool("benchmark-json", false, "print BENCHMARK.json as the program defines it")
	)
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	switch {
	case *printJSON:
		if err := writeBenchmarkJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	case *selfcheck || *baseline:
		s := suite{seed: *seed, seconds: *seconds, outDir: *outDir, rev: *rev, stdout: stdout, stderr: stderr}
		if *selfcheck {
			return s.selfcheck(*out)
		}
		return s.baseline(*out)
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of")
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.Name)
		}
		fmt.Fprintln(stderr, ") and -seconds >= 1")
		return 2
	}

	start := time.Now()
	res, err := runWorkload(w, *seed, *seconds, *traced, *outDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rec := newRecord(w, res, *seed, *seconds, *traced, *rev, time.Since(start))
	fmt.Fprintf(stdout, "workload %s seed %d ops %d\n", w.Name, *seed, res.ops)
	fmt.Fprintf(stdout, "ops_attempted %d\nops_failed %d\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintln(stdout, "FAILED", f)
	}
	printMetrics(stdout, rec.Metrics)
	if *out != "" {
		if err := writeJSONFile(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	// The last line is the driver's: one JSON object holding exactly the
	// metrics BENCHMARK.json lists for this kind of run.
	defs := endToEnd
	if *traced {
		defs = contractPerLayer()
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, pick(res.values, defs)})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// joinTraceValue lets the driver's "--trace 0|1" reach the boolean
// -trace flag, which on its own would not consume a separate value.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

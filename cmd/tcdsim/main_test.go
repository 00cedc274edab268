package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/serve"
)

// tcdsim is the binary under test, built once from this directory.
var tcdsim string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tcdsim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tcdsim = filepath.Join(dir, "tcdsim")
	if out, err := exec.Command("go", "build", "-o", tcdsim, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns its stdout and exit code.
func run(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	return runEnv(t, nil, args...)
}

// runEnv is run with extra environment entries ("K=V").
func runEnv(t *testing.T, env []string, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(tcdsim, args...)
	cmd.Env = append(os.Environ(), env...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("tcdsim %v: %v", args, err)
	}
	return stdout.Bytes(), cmd.ProcessState.ExitCode()
}

// -list prints the registry: every scenario, in order, and nothing else.
func TestListNamesTheRegistry(t *testing.T) {
	out, code := run(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	var got, want []string
	for _, line := range strings.Split(string(out), "\n") {
		// Scenario lines are indented by two; their axes lines deeper.
		if strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") {
			got = append(got, strings.Fields(line)[0])
		}
	}
	for _, sc := range exp.Scenarios {
		want = append(want, sc.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("-list names %v, exp.Scenarios has %v", got, want)
	}
}

// Under -json - stdout is the document and nothing else, also when
// -series asks for a rendering (it goes to stderr with the rest of what a
// person reads).
func TestJSONStdoutIsOnlyJSON(t *testing.T) {
	out, code := run(t, "-exp", "fig3", "-horizon", "1ms", "-json", "-", "-series", "P2_queue")
	if code != 0 {
		t.Fatalf("exited %d", code)
	}
	var doc struct {
		Name   string
		Series map[string]json.RawMessage
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%.200s", err, out)
	}
	if doc.Name == "" || doc.Series["P2_queue"] == nil {
		t.Errorf("document has name %q and %d series, none of them P2_queue", doc.Name, len(doc.Series))
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.json")
	sink := filepath.Join(dir, "sink")
	// Schedules that parse but do not fit the fig3 topology: the run
	// itself rejects them.
	badLink := filepath.Join(dir, "bad-link.json")
	badPrio := filepath.Join(dir, "bad-prio.json")
	// A valid schedule, for a scenario that takes none.
	linkDown := filepath.Join(dir, "link-down.json")
	// A valid schedule that duplicates victim-under-flap's built-in flap.
	flap := filepath.Join(dir, "flap.json")
	for path, spec := range map[string]string{
		badLink:  `{"events":[{"kind":"link-down","link":"X-Y","at_us":10}]}`,
		badPrio:  `{"events":[{"kind":"pause-storm","port":"T2->R1","prio":7,"at_us":10,"until_us":100,"period_us":10,"down_us":5}]}`,
		linkDown: `{"events":[{"kind":"link-down","link":"R0-T2","at_us":10}]}`,
		flap:     `{"events":[{"kind":"flap","link":"R0-T2","at_us":500,"period_us":1000,"down_us":400,"until_us":3000}]}`,
	} {
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-exp", "fig3", "-shard", "2/2"},
		{"-exp", "fig3", "-shard", "x"},
		{"-exp", "fig3", "-fabric", "ethernet"},
		{"-exp", "fig3", "-arch", "bogus"},
		{"-exp", "fig16", "-workload", "websaerch"},
		{"-exp", "fig3", "-faults", missing},
		{"-exp", "fig3", "-faults", badLink},
		{"-exp", "fig3", "-faults", badLink, "-runs", "2"},
		{"-exp", "fig3", "-faults", badPrio},
		{"-exp", "fig3", "-faults", badPrio, "-runs", "2"},
		{"-exp", "adversarial", "-adversarial", missing},
		{"-exp", "table3", "-horizon", "1ms", "-faults", linkDown},
		{"-exp", "victim-under-flap", "-faults", flap},
		{"-exp", "fig3", "-horizon", "1ms", "-adversarial", "../../internal/exp/testdata/adversarial/battery.json"},
		{"-topo-stats", "-topo", "ring"},
		{"-exp", "fig16", "-k", "3", "-flows", "10", "-horizon", "1ms"},
		{"-exp", "fig16", "-k", "-4"},
		{"-exp", "fig16", "-flows", "-5"},
		{"-topo-stats", "-k", "3"},
		{"-topo-stats", "-topo", "leafspine", "-leaves", "0"},
		{"-exp", "adversarial", "-runs", "2", "-oracle-out", sink},
		{"-exp", "fig12", "-runs", "2", "-trace-out", sink},
		{"-exp", "fig12", "-runs", "2", "-metrics-out", sink},
		{"-exp", "fig12", "-runs", "2", "-series", "P2_queue"},
		{"-exp", "fig3", "-horizon", "-1ms"},
		{"-exp", "fig3", "-runs", "-5"},
		{"-exp", "table3", "-trace-out", sink},
		{"-exp", "table3", "-telemetry"},
		{"-exp", "fig16", "-metrics-out", sink},
		{"-exp", "fig16", "-telemetry"},
		{"-exp", "fig16", "-runs", "2", "-telemetry"},
	} {
		// Bad input is one line; a failed run exits 1 with its stack.
		cmd := exec.Command(tcdsim, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		cmd.Run() //nolint:errcheck // the exit code is checked
		if code := cmd.ProcessState.ExitCode(); code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("tcdsim %v: exit %d with %d bytes on stdout, want 2 and none and a one-line message; stderr:\n%s", args, code, stdout.Len(), stderr.String())
		}
	}
	if _, err := os.Stat(sink); err == nil {
		t.Error("a rejected sink file was still created")
	}
}

// results splits a -json document into its results, and each result's
// name.
func results(t *testing.T, doc []byte) (raw []json.RawMessage, names []string) {
	t.Helper()
	if err := json.Unmarshal(doc, &raw); err != nil {
		raw = []json.RawMessage{doc} // one result is written bare
	}
	for _, r := range raw {
		var head struct{ Name string }
		if err := json.Unmarshal(r, &head); err != nil {
			t.Fatalf("result is not JSON: %v\n%.200s", err, r)
		}
		names = append(names, head.Name)
	}
	return raw, names
}

// perRun drops a job document's cross-seed aggregates.
func perRun(t *testing.T, doc []byte) []json.RawMessage {
	t.Helper()
	raw, names := results(t, doc)
	var out []json.RawMessage
	for i, n := range names {
		if !strings.Contains(n, "-agg-") {
			out = append(out, raw[i])
		}
	}
	return out
}

// Every -json is the job document the daemon serves. A one-run document,
// at the default seed and at -seed 0 (which means it), equals CatalogExec
// of the equivalent JobSpec. A multi-run one gives the same bytes on
// every run and worker count, equals CatalogExec too, and per run equals
// the union of its shards.
func TestMultiRunDocument(t *testing.T) {
	for _, seed := range []string{"1", "0"} {
		args := []string{"-exp", "table3", "-seed", seed, "-horizon", "1ms", "-json", "-"}
		out, code := run(t, args...)
		if code != 0 {
			t.Fatalf("tcdsim %v exited %d", args, code)
		}
		if body := catalogExec(t, fmt.Sprintf(`{"exp":"table3","seed":%s,"horizon_us":1000}`, seed)); !bytes.Equal(out, body) {
			t.Errorf("-seed %s: the one-run CLI document differs from CatalogExec's body", seed)
		}
	}

	for _, c := range []struct{ exp, fabric string }{{"fig3", "cee"}, {"fig12", "ib"}} {
		args := []string{"-exp", c.exp, "-fabric", c.fabric, "-seed", "4", "-horizon", "1ms", "-runs", "3", "-json", "-"}
		var docs [][]byte
		for _, workers := range []string{"1", "1", "2"} {
			out, code := run(t, append(args, "-parallel", workers)...)
			if code != 0 {
				t.Fatalf("tcdsim %v -parallel %s exited %d", args, workers, code)
			}
			docs = append(docs, out)
		}
		if !bytes.Equal(docs[0], docs[1]) {
			t.Errorf("%s/%s: two -runs 3 documents differ", c.exp, c.fabric)
		}
		if !bytes.Equal(docs[0], docs[2]) {
			t.Errorf("%s/%s: -parallel 1 and -parallel 2 differ", c.exp, c.fabric)
		}
		body := catalogExec(t, fmt.Sprintf(`{"exp":%q,"fabric":%q,"seed":4,"runs":3,"horizon_us":1000}`, c.exp, c.fabric))
		if !bytes.Equal(docs[0], body) {
			t.Errorf("%s/%s: the CLI document differs from CatalogExec's body", c.exp, c.fabric)
		}
	}

	args := []string{"-exp", "table3", "-horizon", "1ms", "-runs", "6", "-json", "-"}
	out, code := run(t, args...)
	if code != 0 {
		t.Fatalf("tcdsim %v exited %d", args, code)
	}
	want := perRun(t, out)
	per := len(want) / 6 // results per run
	got := make([]json.RawMessage, len(want))
	for s := 0; s < 3; s++ {
		out, code := run(t, append(args, "-shard", fmt.Sprintf("%d/3", s))...)
		if code != 0 {
			t.Fatalf("shard %d/3 exited %d", s, code)
		}
		for j, r := range perRun(t, out) {
			run := s + 3*(j/per)
			got[run*per+j%per] = r
		}
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("result %d of the shard union differs from the unsharded document", i)
		}
	}
}

// catalogExec returns the daemon's body for a JobSpec.
func catalogExec(t *testing.T, spec string) []byte {
	t.Helper()
	js, err := serve.ParseJobSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, err := serve.CatalogExec(context.Background(), js, nil)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// Stdout is the same bytes on every run of a spec; the wall time a run
// took goes to stderr.
func TestStdoutIsDeterministic(t *testing.T) {
	var outs [2][]byte
	for i := range outs {
		cmd := exec.Command(tcdsim, "-exp", "fig11", "-horizon", "1ms")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, stderr.Bytes())
		}
		if !strings.HasPrefix(stderr.String(), "(fig11, wall ") {
			t.Errorf("run %d: stderr %q holds no wall line", i, stderr.String())
		}
		outs[i] = stdout.Bytes()
	}
	if len(outs[0]) == 0 || !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("two runs printed different stdout:\n%s\n---\n%s", outs[0], outs[1])
	}
}

// topoStat returns the leading number of one -topo-stats line ("ratio
// 161.6x" gives 161.6).
func topoStat(t *testing.T, out []byte, key string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == key {
			v, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "x"), 64)
			if err != nil {
				t.Fatalf("%s line %q: %v", key, line, err)
			}
			return v
		}
	}
	t.Fatalf("-topo-stats printed no %s line:\n%s", key, out)
	return 0
}

// A fat-tree or leaf–spine route table is structural, so it sits far
// below what eager BFS columns would cost and is O(nodes + links) in
// absolute terms. GOMEMLIMIT is a soft limit: the ratio and table_mb
// lines are the assertions, the limit turns a regression into GC work.
func TestTopoStatsRouteTableIsStructural(t *testing.T) {
	out, code := runEnv(t, []string{"GOMEMLIMIT=128MiB"}, "-topo-stats", "-topo", "fattree", "-k", "16")
	if ratio := topoStat(t, out, "ratio"); code != 0 || ratio < 10 {
		t.Errorf("k=16: exit %d, table %.1fx below the eager estimate, want >= 10x", code, ratio)
	}
	out, code = runEnv(t, []string{"GOMEMLIMIT=128MiB"}, "-topo-stats", "-topo", "fattree", "-k", "32")
	if mb := topoStat(t, out, "table_mb"); code != 0 || mb >= 4 {
		t.Errorf("k=32: exit %d, table_mb %.2f, want < 4", code, mb)
	}
	out, code = runEnv(t, []string{"GOMEMLIMIT=256MiB"},
		"-topo-stats", "-topo", "leafspine", "-leaves", "200", "-spines", "16", "-hostsper", "500")
	if hosts := topoStat(t, out, "hosts"); code != 0 || hosts != 100000 {
		t.Errorf("leaf-spine 200x16x500: exit %d, %v hosts, want 100000", code, hosts)
	}
}

// The CLI path of the attack battery: the report it writes is the
// committed oracle golden.
func TestAdversarialOracleOutIsTheGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oracle.json")
	if _, code := run(t, "-exp", "adversarial", "-oracle-out", path); code != 0 {
		t.Fatalf("exited %d", code)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../internal/exp/testdata/golden/adversarial.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("-oracle-out differs from testdata/golden/adversarial.json")
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tcdnet/tcd/internal/exp"
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
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-exp", "fig3", "-shard", "2/2"},
		{"-exp", "fig3", "-shard", "x"},
	} {
		if out, code := run(t, args...); code != 2 || len(out) != 0 {
			t.Errorf("tcdsim %v: exit %d with %d bytes on stdout, want 2 and none", args, code, len(out))
		}
	}
}

// A run with -http serves what it measured while it lingers: a telemetry
// gauge on /metrics, the simulated clock on /progress.
func TestLiveEndpointServesTelemetry(t *testing.T) {
	cmd := exec.Command(tcdsim, "-exp", "fig3", "-telemetry", "-http", "127.0.0.1:0", "-http-linger", "1m")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // it may have exited already
		cmd.Wait()         //nolint:errcheck // killed, so it reports the signal
	})
	var base string
	lines := bufio.NewScanner(stderr)
	for lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "live: http://"); ok {
			base = "http://" + strings.Fields(rest)[0]
			break
		}
	}
	if base == "" {
		t.Fatal("tcdsim never printed its live address")
	}
	// What the child still writes to stderr (one "lingering" line) fits
	// the pipe's buffer, so nothing has to drain it.

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) string {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	// The first snapshot is published at 1 ms of simulated time.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(get("/metrics"), "\nhist_fct_ps_count ") {
		if time.Now().After(deadline) {
			t.Fatal("/metrics never carried hist_fct_ps_count")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if body := get("/progress"); !strings.Contains(body, "sim_time_us") {
		t.Errorf("/progress has no sim_time_us: %q", body)
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

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// tcdsimd is the binary under test, built once from this directory.
var tcdsimd string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tcdsimd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tcdsimd = filepath.Join(dir, "tcdsimd")
	if out, err := exec.Command("go", "build", "-o", tcdsimd, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestDaemonSmoke boots the real daemon on a port of the kernel's
// choosing under a 1 MiB cache and pokes every endpoint: blocking submit,
// byte-identical warm hit, SSE stream to the terminal event, catalog and
// Prometheus metrics, enough distinct specs to cross an eviction, and a
// SIGTERM that drains and exits 0.
func TestDaemonSmoke(t *testing.T) {
	cmd := exec.Command(tcdsimd, "-addr", "127.0.0.1:0", "-cache-mb", "1", "-workers", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // it has exited already unless the test failed
		cmd.Wait()         //nolint:errcheck // killed or already waited for
	})
	// The banner carries the bound address; a bind error would come
	// instead of it and end the scan.
	var base string
	lines := bufio.NewScanner(stderr)
	for lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "tcdsimd: listening on "); ok {
			base = "http://" + strings.Fields(rest)[0]
			break
		}
	}
	if base == "" || strings.HasSuffix(base, ":0") {
		t.Fatalf("tcdsimd never printed the address it bound (got %q)", base)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	do := func(method, path, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp, b
	}

	const spec = `{"exp":"deadlock-unit","seed":3,"horizon_us":50}`
	r1, miss := do("POST", "/v1/jobs?wait=1", spec)
	r2, hit := do("POST", "/v1/jobs?wait=1", spec)
	if r1.StatusCode != 200 || r1.Header.Get("X-Cache") != "miss" || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("two submits of one spec: status %d, X-Cache %q then %q", r1.StatusCode, r1.Header.Get("X-Cache"), r2.Header.Get("X-Cache"))
	}
	if len(miss) == 0 || !bytes.Equal(miss, hit) {
		t.Error("warm hit not byte-identical to its miss")
	}

	// The stream ends on the terminal event, the only one left once the
	// run has finished.
	r3, _ := do("POST", "/v1/jobs", `{"exp":"deadlock-unit","seed":9,"horizon_us":50}`)
	_, sse := do("GET", "/v1/specs/"+r3.Header.Get("X-Spec-Hash")+"/events", "")
	if last := bytes.LastIndex(sse, []byte("event: ")); last < 0 || !bytes.HasPrefix(sse[last:], []byte("event: done\n")) {
		t.Errorf("SSE stream does not end on done:\n%s", sse)
	}
	if _, exps := do("GET", "/v1/exps", ""); !bytes.Contains(exps, []byte(`"deadlock-unit"`)) {
		t.Errorf("/v1/exps does not list deadlock-unit:\n%s", exps)
	}

	// fig3 bodies are ~213 KB at this horizon: six of them cross 1 MiB.
	for seed := 1; seed <= 6; seed++ {
		if resp, _ := do("POST", "/v1/jobs?wait=1", fmt.Sprintf(`{"exp":"fig3","seed":%d,"horizon_us":5000}`, seed)); resp.StatusCode != 200 {
			t.Fatalf("fig3 seed %d: status %d", seed, resp.StatusCode)
		}
	}
	_, metrics := do("GET", "/metrics", "")
	for _, w := range []string{`tcdsimd_jobs_total{state="completed"} 9`, "tcdsimd_cache_budget_bytes 1.048576e+06"} {
		if !bytes.Contains(metrics, []byte(w)) {
			t.Errorf("/metrics missing %q in:\n%s", w, metrics)
		}
	}
	if bytes.Contains(metrics, []byte("tcdsimd_cache_evicted_total 0\n")) {
		t.Errorf("six fig3 bodies under a 1 MiB budget evicted nothing:\n%s", metrics)
	}
	// The first spec was the least recently used: it is a miss again,
	// with the bytes it had before.
	if r, again := do("POST", "/v1/jobs?wait=1", spec); r.Header.Get("X-Cache") != "miss" || !bytes.Equal(again, miss) {
		t.Errorf("evicted spec resubmitted: X-Cache %q, same bytes %v", r.Header.Get("X-Cache"), bytes.Equal(again, miss))
	}

	// A second daemon on the same port fails to bind, and says so instead
	// of announcing itself.
	out, err := exec.Command(tcdsimd, "-addr", strings.TrimPrefix(base, "http://")).CombinedOutput()
	if err == nil || bytes.Contains(out, []byte("listening on")) || !bytes.Contains(out, []byte("address already in use")) {
		t.Errorf("second daemon on a taken port: exit %v, output:\n%s", err, out)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(stderr)
	err = cmd.Wait()
	if err != nil || !bytes.Contains(rest, []byte("clean shutdown")) {
		t.Errorf("SIGTERM: exit %v, stderr:\n%s", err, rest)
	}
}

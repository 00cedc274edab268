package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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
	cmd := exec.Command(tcdsim, args...)
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

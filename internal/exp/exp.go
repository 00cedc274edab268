// Package exp contains one experiment per table and figure of the
// paper's evaluation, built on the simulator substrates. Each experiment
// returns a Result with the series/rows the paper reports; cmd/tcdsim
// renders them and bench_test.go regenerates them at reduced scale.
package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/stats"
)

// Result is the structured output of one experiment run.
type Result struct {
	// Name identifies the experiment (e.g. "fig3-cee").
	Name string
	// Scalars are named headline numbers (fractions, factors, counts).
	Scalars map[string]float64
	// Series are sampled time series (queue length, rates, marks).
	Series map[string]*stats.Series
	// Hists are the run's streaming telemetry histograms (FCT, queue
	// depth, pause durations...). Nil unless telemetry was enabled, so
	// default runs keep their golden JSON byte-identical.
	Hists map[string]*obs.Hist
	// Tables are rendered text blocks (FCT breakdowns etc.).
	Tables []string
	// Notes carry shape observations for EXPERIMENTS.md.
	Notes []string
}

// NewResult allocates an empty result.
func NewResult(name string) *Result {
	return &Result{
		Name:    name,
		Scalars: make(map[string]float64),
		Series:  make(map[string]*stats.Series),
	}
}

// AddNote appends a formatted observation.
func (r *Result) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render prints the result in a stable, human-readable layout.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", r.Name)
	keys := make([]string, 0, len(r.Scalars))
	for k := range r.Scalars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-40s %12.4g\n", k, r.Scalars[k])
	}
	for _, t := range r.Tables {
		sb.WriteString(t)
		if !strings.HasSuffix(t, "\n") {
			sb.WriteString("\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	hkeys := make([]string, 0, len(r.Hists))
	for k := range r.Hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		h := r.Hists[k]
		fmt.Fprintf(&sb, "  hist %-32s n=%d min=%d p50=%d p99=%d max=%d\n",
			k, h.Count(), h.Min(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
	}
	skeys := make([]string, 0, len(r.Series))
	for k := range r.Series {
		skeys = append(skeys, k)
	}
	sort.Strings(skeys)
	for _, k := range skeys {
		s := r.Series[k]
		fmt.Fprintf(&sb, "  series %-32s samples=%d max=%.4g\n", k, len(s.T), s.Max())
	}
	return sb.String()
}

// WriteSeries dumps every collected time series as a CSV file under dir
// (one file per series, named <result>-<series>.csv with a time_us,value
// header) so figures can be plotted without re-running the simulation.
func (r *Result) WriteSeries(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, s := range r.Series {
		fn := filepath.Join(dir, sanitize(r.Name)+"-"+sanitize(name)+".csv")
		var sb strings.Builder
		sb.WriteString("time_us,value\n")
		for i := range s.T {
			fmt.Fprintf(&sb, "%.3f,%g\n", s.T[i].Micros(), s.V[i])
		}
		if err := os.WriteFile(fn, []byte(sb.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/exp/sweep"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/units"
)

// ExecFunc runs one job to completion and returns the deterministic
// result bytes. progress receives human-readable lines to stream over
// SSE (it may be nil). Implementations must honor ctx between runs.
type ExecFunc func(ctx context.Context, spec *JobSpec, progress io.Writer) ([]byte, error)

// CatalogExec is the default executor: it expands the job (a spec that
// ParseJobSpec returned) into per-seed sweep specs and funnels them
// through the sweep engine, which gives every run the same isolation a
// CLI sweep gets — a private scheduler, RNG and recorder per run, panic
// capture, and context-checked starts — then encodes the per-run results
// (plus the cross-seed aggregate for multi-run jobs) with the encoder
// `tcdsim -json` uses.
func CatalogExec(ctx context.Context, spec *JobSpec, progress io.Writer) ([]byte, error) {
	sc := exp.Lookup(spec.Exp)
	if sc == nil {
		return nil, fmt.Errorf("serve: unknown exp %q", spec.Exp)
	}
	base := spec.params
	specs := sweep.Grid{
		Exps:    []string{spec.Exp},
		Fabrics: []exp.FabricKind{base.Fabric},
		Dets:    []exp.DetectorKind{base.Det},
		CCs:     []exp.CCKind{base.CC},
		Seeds:   sweep.Seq(spec.Seed, spec.Runs),
	}.Specs()

	// Parallel: 1 — jobs parallelize across the daemon's worker pool,
	// not inside one job, so a single submission cannot monopolize the
	// pool's cores.
	opt := sweep.Options{Parallel: 1}
	if progress != nil {
		// Stream the simulator's own progress ticker: one line per
		// simulated millisecond, cheap at service horizons.
		base.Obs = obs.Config{ProgressEvery: units.Millisecond, ProgressOut: progress}
		opt.OnStart = func(i int, sp sweep.Spec) {
			fmt.Fprintf(progress, "run %d/%d start %s\n", i+1, len(specs), sp)
		}
		opt.OnDone = func(i int, r *sweep.RunResult) {
			fmt.Fprintf(progress, "run %d/%d done %s (%v)\n", i+1, len(specs), r.Spec, r.Wall)
		}
	}
	rs := sweep.Run(ctx, specs, sweep.Scenario(sc, base), opt)
	for _, r := range rs {
		if r.Err != nil {
			return nil, fmt.Errorf("serve: run %s: %w", r.Spec, r.Err)
		}
	}
	var results []*exp.Result
	for _, r := range rs {
		results = append(results, r.Results...)
	}
	if spec.Runs > 1 {
		results = append(results, sweep.Aggregate(rs)...)
	}
	// The export arrives in chunks, so a fresh buffer would grow by
	// doubling and leave a second, slack-laden copy of every body behind.
	// Encode into pooled scratch that has already grown, and hand the
	// result cache — which keeps these bytes for as long as the entry
	// lives — an exact-size copy.
	buf := encodeScratch.Get().(*bytes.Buffer)
	defer encodeScratch.Put(buf)
	buf.Reset()
	if err := exp.WriteResultsJSON(buf, results); err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
}

// encodeScratch holds CatalogExec's encode buffers between jobs.
var encodeScratch = sync.Pool{New: func() any { return new(bytes.Buffer) }}

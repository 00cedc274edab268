// Package serve is the simulation-as-a-service layer: a long-running
// daemon that accepts experiment specs over REST/JSON, runs them on a
// bounded worker pool (each job with the same private scheduler/RNG
// isolation the sweep engine gives a run), streams progress over SSE,
// and caches results keyed by the hash of the canonicalized spec so
// identical submissions are byte-identical cache hits.
//
// Determinism contract: a JobSpec fully determines the result bytes. The
// spec is canonicalized before hashing — defaults applied, enum strings
// normalized, field order fixed by re-marshaling — so the hash is
// insensitive to JSON field order, whitespace and explicitly-written
// defaults, and sensitive to exactly the fields that change the
// simulation (experiment, fabric, detector, congestion control, seed,
// repetition count, horizon, fault schedule).
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/fault"
	"github.com/tcdnet/tcd/internal/units"
)

// Limits on what a single submission may ask for. They bound the work a
// request can enqueue before it ever reaches a worker: a daemon facing
// untrusted clients must reject absurd grids at the door, not discover
// them mid-simulation.
const (
	// MaxRuns caps the per-job seed-repetition axis.
	MaxRuns = 64
	// MaxHorizonUs caps the simulated horizon (10 s of simulated time;
	// the paper's longest figure runs 400 ms).
	MaxHorizonUs = 10e6
	// MaxFaultEvents caps the fault schedule length (a rule can expand
	// into many actions, but fault.Spec.Validate bounds the whole
	// schedule's expansion itself).
	MaxFaultEvents = 4096
	// MaxSpecBytes caps the request body accepted by the submit handler.
	MaxSpecBytes = 1 << 20
)

// JobSpec is one submission: which experiment to run and with what
// parameters. The JSON field order of this struct is the canonical
// serialization order; Canonical re-marshals a normalized copy, so two
// specs that mean the same run serialize to the same bytes.
type JobSpec struct {
	// Exp names a service-addressable scenario of exp.Scenarios (e.g.
	// fig3, table3, deadlock-unit; GET /v1/exps lists them).
	Exp string `json:"exp"`
	// Fabric selects the lossless technology: "cee" (default) or "ib".
	Fabric string `json:"fabric"`
	// Det overrides the experiment's detector where the experiment
	// supports it ("baseline", "tcd", "tcd-adaptive", "np-ecn").
	// Empty selects the experiment default; experiments that fix their
	// detector reject a non-empty value.
	Det string `json:"det,omitempty"`
	// CC selects the congestion control for experiments that take one
	// (fig20: "dcqcn+tcd" or "timely+tcd"). Same rules as Det.
	CC string `json:"cc,omitempty"`
	// Seed feeds the run's private random streams. 0 means the default
	// seed 1 (exp.SeedOrDefault), as it does for `tcdsim -seed`.
	Seed uint64 `json:"seed"`
	// Runs repeats the experiment over this many consecutive seeds
	// (Seed, Seed+1, ...) and appends the folded cross-seed aggregate to
	// the result. 0 means 1.
	Runs int `json:"runs"`
	// HorizonUs overrides the simulated horizon in microseconds.
	// 0 keeps the experiment's default horizon.
	HorizonUs float64 `json:"horizon_us"`
	// Faults is an optional fault schedule (benign and adversarial
	// kinds) armed against each run, for experiments that accept one.
	Faults *fault.Spec `json:"faults,omitempty"`

	// params is what the spec says in the registry's terms: normalize
	// fills and menu-checks it, CatalogExec runs from it.
	params exp.Params
}

// ParseJobSpec decodes, normalizes and validates a JSON submission. The
// decode is strict: unknown fields, trailing garbage and malformed JSON
// are rejected before anything is enqueued.
func ParseJobSpec(data []byte) (*JobSpec, error) {
	if len(data) > MaxSpecBytes {
		return nil, fmt.Errorf("serve: spec exceeds %d bytes", MaxSpecBytes)
	}
	var s JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("serve: parsing spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: trailing data after spec")
	}
	if err := s.normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// normalize lowercases the enum strings, applies defaults, and validates
// every field against the registry scenario Exp names. After normalize,
// two semantically identical specs are field-for-field identical.
func (s *JobSpec) normalize() error {
	s.Exp = strings.ToLower(strings.TrimSpace(s.Exp))
	sc := exp.Lookup(s.Exp)
	if sc == nil {
		return fmt.Errorf("serve: unknown exp %q (see /v1/exps)", s.Exp)
	}
	if !sc.ServiceAddressable() {
		return fmt.Errorf("serve: exp %q is sized by axes a JobSpec does not carry; run it with the tcdsim CLI", s.Exp)
	}
	var err error
	s.Fabric = strings.ToLower(strings.TrimSpace(s.Fabric))
	if s.Fabric == "" {
		s.Fabric = exp.CEE.String()
	}
	if s.params.Fabric, err = exp.ParseFabric(s.Fabric); err != nil {
		return err
	}
	// An unset det/cc names the scenario's default (where the CLI would
	// run a comparison scenario's whole menu); a scenario without the
	// menu keeps it empty. DetNone and CCFixed mean "unset" to Check, so a
	// spec that spells them out asks for something no menu holds.
	s.Det = strings.ToLower(strings.TrimSpace(s.Det))
	if s.Det == "" && len(sc.Dets) > 0 {
		s.Det = sc.DefaultDet.String()
	}
	if s.Det != "" {
		if s.params.Det, err = exp.ParseDet(s.Det); err != nil {
			return err
		}
		if s.params.Det == exp.DetNone {
			return fmt.Errorf("serve: exp %q does not support det %q", s.Exp, s.Det)
		}
	}
	s.CC = strings.ToLower(strings.TrimSpace(s.CC))
	if s.CC == "" && len(sc.CCs) > 0 {
		s.CC = sc.DefaultCC.String()
	}
	if s.CC != "" {
		if s.params.CC, err = exp.ParseCC(s.CC); err != nil {
			return err
		}
		if s.params.CC == exp.CCFixed {
			return fmt.Errorf("serve: exp %q does not support cc %q", s.Exp, s.CC)
		}
	}
	if s.Faults != nil && len(s.Faults.Events) > MaxFaultEvents {
		return fmt.Errorf("serve: fault schedule exceeds %d events", MaxFaultEvents)
	}
	// Check validates the schedule, merged with any events the scenario
	// arms ahead of it.
	s.params.Faults = s.Faults
	if err := sc.Check(s.params); err != nil {
		return err
	}
	s.Seed = exp.SeedOrDefault(s.Seed)
	if s.Runs == 0 {
		s.Runs = 1
	}
	if s.Runs < 1 || s.Runs > MaxRuns {
		return fmt.Errorf("serve: runs must be in [1, %d] (got %d)", MaxRuns, s.Runs)
	}
	if math.IsNaN(s.HorizonUs) || math.IsInf(s.HorizonUs, 0) {
		return fmt.Errorf("serve: horizon_us is not a finite number")
	}
	if s.HorizonUs < 0 || s.HorizonUs > MaxHorizonUs {
		return fmt.Errorf("serve: horizon_us must be in [0, %g] (got %g)", float64(MaxHorizonUs), s.HorizonUs)
	}
	if s.HorizonUs > 0 && s.Horizon() == 0 {
		// Rounding to zero ticks would mean "experiment default": the
		// full default horizon under a hash of its own.
		return fmt.Errorf("serve: horizon_us %g is below one simulator tick (1e-6 us); 0 keeps the default", s.HorizonUs)
	}
	if s.Faults.Empty() {
		// nil and {} mean the same run; canonicalize to nil so they hash
		// identically.
		s.Faults = nil
	}
	s.params.Seed, s.params.Horizon, s.params.Faults = s.Seed, s.Horizon(), s.Faults
	return nil
}

// Horizon converts the override to simulator time, rounded to the
// nearest tick as every other µs field of a spec is (0 = default).
func (s *JobSpec) Horizon() units.Time { return units.FromMicros(s.HorizonUs) }

// Canonical serializes the normalized spec in the canonical field order
// with no insignificant whitespace. ParseJobSpec(Canonical()) returns an
// identical spec, so canonicalization is idempotent.
func (s *JobSpec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A normalized JobSpec is always marshalable; fault.Spec holds
		// only plain structs.
		panic("serve: canonical marshal: " + err.Error())
	}
	return b
}

// Hash returns the hex SHA-256 of the canonical serialization — the
// result-cache key and the client-visible spec identity.
func (s *JobSpec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

package main

import (
	"io"
	"slices"
	"testing"

	"github.com/tcdnet/tcd"
)

// The quickstart shows what its header says: the §4.3 bound at 40 Gbps,
// an incast that finishes, and a detector that goes non-congestion ->
// congestion -> non-congestion while marking CE.
func TestQuickstart(t *testing.T) {
	o := run(io.Discard)
	if got := o.det.Config().MaxTon; got.String() != "34.4us" {
		t.Errorf("max(Ton) = %v (%d ps), want 34.4us", got, int64(got))
	}
	for i, f := range o.flows {
		if !f.Done {
			t.Errorf("flow %d did not finish", i)
		}
	}
	want := []tcd.State{tcd.NonCongestion, tcd.Congestion, tcd.NonCongestion}
	var got []tcd.State
	for i, tr := range o.det.Transitions() {
		if i == 0 {
			got = append(got, tr.From)
		}
		got = append(got, tr.To)
	}
	if !slices.Equal(got, want) {
		t.Errorf("states %v, want %v", got, want)
	}
	if o.bottleneck.MarkedCE == 0 {
		t.Error("the bottleneck marked no packet CE")
	}
}

package workload

import (
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/units"
)

// The trace format is fixed to the byte: the benchmark fingerprints
// workloads through it.
func TestWriteTraceBytes(t *testing.T) {
	var sb strings.Builder
	flows := []Flow{
		{Src: 0, Dst: 1, Size: 1000, Start: 0},
		{Src: 2, Dst: 3, Size: 64 * units.KB, Start: 125500 * units.Nanosecond},
	}
	if err := WriteTrace(&sb, flows); err != nil {
		t.Fatal(err)
	}
	want := "src,dst,bytes,start_us\n0,1,1000,0.000\n2,3,64000,125.500\n"
	if sb.String() != want {
		t.Errorf("WriteTrace wrote\n%q\nwant\n%q", sb.String(), want)
	}
}

package workload

import (
	"bufio"
	"fmt"
	"io"
)

// A trace is a generated workload written out, so two runs can be shown
// to draw the same flows. The format is a CSV with a header:
//
//	src,dst,bytes,start_us
//	0,7,64000,125.500
//
// src/dst are topology node IDs (host nodes), bytes the message size and
// start_us the start time in microseconds.

// WriteTrace serializes flows to w in trace format.
func WriteTrace(w io.Writer, flows []Flow) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("src,dst,bytes,start_us\n"); err != nil {
		return err
	}
	for _, f := range flows {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%.3f\n", f.Src, f.Dst, int64(f.Size), f.Start.Micros()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

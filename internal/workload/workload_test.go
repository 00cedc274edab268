package workload

import (
	"math"
	"testing"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/units"
)

func TestCDFValidation(t *testing.T) {
	bad := []struct {
		size []units.ByteSize
		cum  []float64
	}{
		{[]units.ByteSize{10}, []float64{1}},                    // too short
		{[]units.ByteSize{10, 20}, []float64{0.5}},              // mismatched
		{[]units.ByteSize{10, 20}, []float64{0.5, 0.9}},         // not ending at 1
		{[]units.ByteSize{20, 10}, []float64{0.5, 1}},           // not increasing
		{[]units.ByteSize{10, 20}, []float64{0.9, 0.5}},         // decreasing cum
		{[]units.ByteSize{0, 20}, []float64{0.5, 1}},            // zero size
		{[]units.ByteSize{10, 20, 30}, []float64{-0.1, 0.5, 1}}, // negative prob
	}
	for i, b := range bad {
		if _, err := NewCDF(b.size, b.cum); err == nil {
			t.Errorf("case %d: invalid CDF accepted", i)
		}
	}
	if _, err := NewCDF([]units.ByteSize{10, 20}, []float64{0.3, 1}); err != nil {
		t.Errorf("valid CDF rejected: %v", err)
	}
}

func TestPaperQuantileAnchors(t *testing.T) {
	// §5.2.1: "90% flows of the Hadoop workload are less than 120KB. The
	// WebSearch workload is heavier, with 90% flows less than 5MB."
	if got := Hadoop().Quantile(0.9); got != 120*units.KB {
		t.Errorf("Hadoop P90 = %v, want 120KB", got)
	}
	if got := WebSearch().Quantile(0.9); got != 5*units.MB {
		t.Errorf("WebSearch P90 = %v, want 5MB", got)
	}
}

func TestSampleMatchesCDF(t *testing.T) {
	r := rng.New(42)
	c := Hadoop()
	const n = 200000
	below120K := 0
	var sum float64
	for i := 0; i < n; i++ {
		s := c.Sample(r)
		if s < c.Size[0] || s > c.Size[len(c.Size)-1] {
			t.Fatalf("sample %v outside CDF support", s)
		}
		if s <= 120*units.KB {
			below120K++
		}
		sum += float64(s)
	}
	frac := float64(below120K) / n
	if math.Abs(frac-0.9) > 0.01 {
		t.Errorf("P(size <= 120KB) = %v, want ~0.9", frac)
	}
	empMean := sum / n
	anaMean := float64(c.Mean())
	if math.Abs(empMean-anaMean)/anaMean > 0.05 {
		t.Errorf("empirical mean %v vs analytic %v", empMean, anaMean)
	}
}

func TestWebSearchHeavierThanHadoop(t *testing.T) {
	if WebSearch().Mean() <= Hadoop().Mean() {
		t.Error("WebSearch should have a heavier mean than Hadoop")
	}
}

func TestMPISizesMostlySmall(t *testing.T) {
	r := rng.New(7)
	c := MPISizes()
	const n = 100000
	at2k := 0
	for i := 0; i < n; i++ {
		s := c.Sample(r)
		if s < 2*units.KB || s > 32*units.KB {
			t.Fatalf("MPI size %v outside [2KB, 32KB]", s)
		}
		if s <= 2*units.KB {
			at2k++
		}
	}
	if float64(at2k)/n < 0.5 {
		t.Errorf("only %v of MPI messages at 2KB, paper says over 50%%", float64(at2k)/n)
	}
}

func TestIOSizes(t *testing.T) {
	r := rng.New(9)
	seen := map[units.ByteSize]int{}
	for i := 0; i < 10000; i++ {
		seen[IOSizes(r)]++
	}
	want := []units.ByteSize{512 * units.KB, units.MB, 2 * units.MB, 4 * units.MB}
	if len(seen) != 4 {
		t.Fatalf("I/O sizes drawn: %v, want the paper's four", seen)
	}
	for _, w := range want {
		if seen[w] < 2000 {
			t.Errorf("size %v under-represented: %d/10000", w, seen[w])
		}
	}
}

func hostIDs(n int) []packet.NodeID {
	out := make([]packet.NodeID, n)
	for i := range out {
		out[i] = packet.NodeID(i)
	}
	return out
}

func TestPoissonLoad(t *testing.T) {
	r := rng.New(11)
	cfg := PoissonConfig{
		Hosts:      hostIDs(16),
		CDF:        Hadoop(),
		Load:       0.6,
		AccessRate: 40 * units.Gbps,
		Horizon:    20 * units.Millisecond,
	}
	flows := Poisson(r, cfg)
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	var bytes float64
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatal("self-flow generated")
		}
		if f.Start < 0 || f.Start >= cfg.Horizon {
			t.Fatalf("start %v outside horizon", f.Start)
		}
		bytes += float64(f.Size)
	}
	// Offered load ≈ Load * AccessRate * nHosts * horizon.
	wantBits := cfg.Load * float64(cfg.AccessRate) * 16 * cfg.Horizon.Seconds()
	gotBits := bytes * 8
	if math.Abs(gotBits-wantBits)/wantBits > 0.25 {
		t.Errorf("offered bits = %.3g, want ~%.3g (±25%%)", gotBits, wantBits)
	}
	// Starts are sorted by construction of the arrival process.
	for i := 1; i < len(flows); i++ {
		if flows[i].Start < flows[i-1].Start {
			t.Fatal("arrivals not time-ordered")
		}
	}
}

func TestPoissonMaxFlows(t *testing.T) {
	r := rng.New(11)
	cfg := PoissonConfig{
		Hosts:      hostIDs(8),
		CDF:        Hadoop(),
		Load:       0.6,
		AccessRate: 40 * units.Gbps,
		Horizon:    100 * units.Millisecond,
		MaxFlows:   50,
	}
	if got := len(Poisson(r, cfg)); got != 50 {
		t.Errorf("flows = %d, want capped at 50", got)
	}
	if Poisson(r, PoissonConfig{Load: 0}) != nil {
		t.Error("zero load should generate nothing")
	}
}

func TestMPIIOMix(t *testing.T) {
	r := rng.New(13)
	hosts := hostIDs(64)
	servers := hosts[:8]
	cfg := MPIIOConfig{
		Hosts:        hosts,
		IOServers:    servers,
		IOClientFrac: 0.25,
		Messages:     20000,
		IOFrac:       0.1,
		Horizon:      10 * units.Millisecond,
	}
	flows := MPIIO(r, cfg)
	if len(flows) == 0 {
		t.Fatal("no messages")
	}
	io, mpi := 0, 0
	isServer := map[packet.NodeID]bool{}
	for _, s := range servers {
		isServer[s] = true
	}
	for _, f := range flows {
		if isServer[f.Dst] {
			io++
			if f.Size < 512*units.KB {
				t.Fatal("I/O message too small")
			}
		} else {
			mpi++
			if f.Size > 32*units.KB {
				t.Fatal("MPI message too large")
			}
		}
	}
	frac := float64(io) / float64(len(flows))
	if math.Abs(frac-0.1) > 0.02 {
		t.Errorf("I/O fraction = %v, want ~0.1", frac)
	}
	// Time-ordered output.
	for i := 1; i < len(flows); i++ {
		if flows[i].Start < flows[i-1].Start {
			t.Fatal("messages not time-ordered")
		}
	}
	_ = mpi
}

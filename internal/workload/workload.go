// Package workload generates the paper's traffic: heavy-tailed flow-size
// distributions (the Facebook Hadoop and DCTCP WebSearch CDFs used in
// §5.2), HPC MPI/IO message mixes (§5.2.2) and Poisson flow arrivals at a
// target load. The synchronized incast bursts of §3.1 are placed by the
// scenarios that run them (exp.Fig2Rig.LaunchBursts, exp.Victim).
package workload

import (
	"fmt"
	"sort"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/units"
)

// CDF is a piecewise-linear flow-size distribution: P(size <= Size[i]) =
// Cum[i]. Sampling inverts it with linear interpolation between points.
type CDF struct {
	Size []units.ByteSize
	Cum  []float64
}

// NewCDF validates and builds a CDF. Cum must be non-decreasing and end
// at 1; Size must be increasing and positive.
func NewCDF(size []units.ByteSize, cum []float64) (*CDF, error) {
	if len(size) != len(cum) || len(size) < 2 {
		return nil, fmt.Errorf("workload: CDF needs matching size/cum with >= 2 points")
	}
	for i := range size {
		if size[i] <= 0 {
			return nil, fmt.Errorf("workload: non-positive size %v", size[i])
		}
		if i > 0 && size[i] <= size[i-1] {
			return nil, fmt.Errorf("workload: sizes not increasing at %d", i)
		}
		if cum[i] < 0 || cum[i] > 1 || (i > 0 && cum[i] < cum[i-1]) {
			return nil, fmt.Errorf("workload: invalid cumulative prob at %d", i)
		}
	}
	if cum[len(cum)-1] != 1 {
		return nil, fmt.Errorf("workload: CDF must end at 1, got %v", cum[len(cum)-1])
	}
	return &CDF{Size: size, Cum: cum}, nil
}

func mustCDF(size []units.ByteSize, cum []float64) *CDF {
	c, err := NewCDF(size, cum)
	if err != nil {
		panic(err)
	}
	return c
}

// Sample draws one flow size.
func (c *CDF) Sample(r *rng.Source) units.ByteSize {
	u := r.Float64()
	i := sort.SearchFloat64s(c.Cum, u)
	if i == 0 {
		return c.Size[0]
	}
	if i >= len(c.Cum) {
		return c.Size[len(c.Size)-1]
	}
	lo, hi := c.Cum[i-1], c.Cum[i]
	sLo, sHi := c.Size[i-1], c.Size[i]
	if hi == lo {
		return sHi
	}
	frac := (u - lo) / (hi - lo)
	return sLo + units.ByteSize(frac*float64(sHi-sLo))
}

// Mean is the distribution's expected flow size (piecewise-linear).
func (c *CDF) Mean() units.ByteSize {
	total := 0.0
	prev := 0.0
	var prevSize units.ByteSize
	first := true
	for i := range c.Size {
		if first {
			total += c.Cum[i] * float64(c.Size[i])
			first = false
		} else {
			total += (c.Cum[i] - prev) * float64(c.Size[i]+prevSize) / 2
		}
		prev = c.Cum[i]
		prevSize = c.Size[i]
	}
	return units.ByteSize(total)
}

// Quantile returns the size at cumulative probability p.
func (c *CDF) Quantile(p float64) units.ByteSize {
	i := sort.SearchFloat64s(c.Cum, p)
	if i >= len(c.Size) {
		return c.Size[len(c.Size)-1]
	}
	return c.Size[i]
}

// Hadoop returns the heavy-tailed Facebook Hadoop flow-size distribution
// (Roy et al., SIGCOMM'15), reconstructed from the published distribution
// with the paper's stated anchor: 90% of flows below 120 KB.
func Hadoop() *CDF {
	return mustCDF(
		[]units.ByteSize{130, 358, 1091, 2353, 3586, 7288, 20 * units.KiB,
			30 * units.KiB, 68 * units.KiB, 120 * units.KB, units.MiB,
			2 * units.MiB, 10 * units.MiB},
		[]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1},
	)
}

// WebSearch returns the DCTCP web-search flow-size distribution (Alizadeh
// et al., SIGCOMM'10): heavier than Hadoop, 90% of flows below 5 MB as
// the paper states.
func WebSearch() *CDF {
	return mustCDF(
		[]units.ByteSize{units.KB, 10 * units.KB, 20 * units.KB, 30 * units.KB,
			50 * units.KB, 80 * units.KB, 200 * units.KB, units.MB,
			2 * units.MB, 5 * units.MB, 10 * units.MB, 30 * units.MB},
		[]float64{0, 0.15, 0.2, 0.3, 0.4, 0.53, 0.6, 0.7, 0.8, 0.9, 0.97, 1},
	)
}

// MPISizes returns the paper's §5.2.2 MPI message mix: 2 KB to 32 KB with
// over half of the messages at 2 KB.
func MPISizes() *CDF {
	return mustCDF(
		[]units.ByteSize{2 * units.KB, 4 * units.KB, 8 * units.KB, 16 * units.KB, 32 * units.KB},
		[]float64{0.55, 0.70, 0.82, 0.92, 1},
	)
}

// IOSizes samples the paper's I/O message sizes: uniformly one of 512 KB,
// 1 MB, 2 MB or 4 MB.
func IOSizes(r *rng.Source) units.ByteSize {
	choices := []units.ByteSize{512 * units.KB, units.MB, 2 * units.MB, 4 * units.MB}
	return choices[r.Intn(len(choices))]
}

// Flow is one generated traffic demand.
type Flow struct {
	Src, Dst packet.NodeID
	Size     units.ByteSize
	Start    units.Time
}

// PoissonConfig drives a random-pairs Poisson flow generator.
type PoissonConfig struct {
	// Hosts are the candidate endpoints; Src and Dst are drawn uniformly
	// (distinct).
	Hosts []packet.NodeID
	// CDF is the flow-size distribution.
	CDF *CDF
	// Load is the average offered load on host access links, as a
	// fraction of AccessRate (the paper's Fig 16 uses 0.6).
	Load float64
	// AccessRate is the host link capacity.
	AccessRate units.Rate
	// Horizon stops generation; flows start in [0, Horizon).
	Horizon units.Time
	// MaxFlows caps the number of flows (0 = unlimited).
	MaxFlows int
}

// Poisson generates flows with exponential inter-arrival times so that
// the expected aggregate demand equals Load * AccessRate * len(Hosts).
func Poisson(r *rng.Source, cfg PoissonConfig) []Flow {
	if cfg.Load <= 0 || len(cfg.Hosts) < 2 {
		return nil
	}
	mean := float64(cfg.CDF.Mean().Bits())
	// Aggregate arrival rate (flows/sec) over the whole fabric.
	lambda := cfg.Load * float64(cfg.AccessRate) * float64(len(cfg.Hosts)) / mean
	meanGapSec := 1 / lambda
	var out []Flow
	t := units.FromSeconds(r.Exp(meanGapSec))
	for t < cfg.Horizon {
		src := cfg.Hosts[r.Intn(len(cfg.Hosts))]
		dst := cfg.Hosts[r.Intn(len(cfg.Hosts))]
		for dst == src {
			dst = cfg.Hosts[r.Intn(len(cfg.Hosts))]
		}
		out = append(out, Flow{Src: src, Dst: dst, Size: cfg.CDF.Sample(r), Start: t})
		if cfg.MaxFlows > 0 && len(out) >= cfg.MaxFlows {
			break
		}
		t += units.FromSeconds(r.Exp(meanGapSec))
	}
	return out
}

// MPIIOConfig drives the paper's §5.2.2 HPC scenario: a fraction of nodes
// are I/O clients sending large messages to per-rack I/O servers, the
// rest exchange small MPI messages.
type MPIIOConfig struct {
	// Hosts are all endpoints.
	Hosts []packet.NodeID
	// IOServers receive I/O traffic.
	IOServers []packet.NodeID
	// IOClientFrac is the fraction of non-server hosts acting as I/O
	// clients (0.25 in the paper).
	IOClientFrac float64
	// Messages is the total message count; IOFrac of them are I/O.
	Messages int
	// IOFrac is the fraction of I/O messages (0.1 in the paper).
	IOFrac float64
	// Horizon spreads message starts uniformly over this window.
	Horizon units.Time
}

// MPIIO generates the HPC message mix.
func MPIIO(r *rng.Source, cfg MPIIOConfig) []Flow {
	isServer := make(map[packet.NodeID]bool, len(cfg.IOServers))
	for _, s := range cfg.IOServers {
		isServer[s] = true
	}
	var clients, mpiNodes []packet.NodeID
	for _, h := range cfg.Hosts {
		if isServer[h] {
			continue
		}
		if float64(len(clients)) < cfg.IOClientFrac*float64(len(cfg.Hosts)) {
			clients = append(clients, h)
		} else {
			mpiNodes = append(mpiNodes, h)
		}
	}
	mpi := MPISizes()
	var out []Flow
	for i := 0; i < cfg.Messages; i++ {
		start := units.Time(r.Int63n(int64(cfg.Horizon)))
		if r.Bool(cfg.IOFrac) && len(clients) > 0 && len(cfg.IOServers) > 0 {
			src := clients[r.Intn(len(clients))]
			dst := cfg.IOServers[r.Intn(len(cfg.IOServers))]
			out = append(out, Flow{Src: src, Dst: dst, Size: IOSizes(r), Start: start})
		} else if len(mpiNodes) >= 2 {
			src := mpiNodes[r.Intn(len(mpiNodes))]
			dst := mpiNodes[r.Intn(len(mpiNodes))]
			for dst == src {
				dst = mpiNodes[r.Intn(len(mpiNodes))]
			}
			out = append(out, Flow{Src: src, Dst: dst, Size: mpi.Sample(r), Start: start})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

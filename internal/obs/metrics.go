package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Registry is a labeled metrics store: monotonic counters and
// point-in-time gauges keyed by a name plus label pairs (port, flow,
// priority...). It replaces ad-hoc exported counter fields gradually:
// components keep their fields, and a snapshot pass folds them into the
// registry at the end of a run for uniform export.
//
// Keys are canonical — label pairs are sorted — so the same metric
// reached from different call sites lands in one cell, and the JSON
// export is deterministic.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	// prom maps the canonical key to its Prometheus-rendered series
	// identity (name{k="v",...}), built once at creation.
	prom map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		prom:     make(map[string]string),
	}
}

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v int64 }

// Add increments the counter.
func (c *Counter) Add(d int64) { c.v += d }

// Gauge is a point-in-time float64 metric.
type Gauge struct{ v float64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// metricKey renders the canonical "name{k=v,k2=v2}" key and the
// Prometheus series identity name{k="v",k2="v2"}, label pairs sorted by
// key in both, so the same metric reached with labels in any order lands
// in one cell and both exports are deterministic.
func metricKey(name string, labels []string) (key, prom string) {
	if len(labels)%2 != 0 {
		panic("obs: labels must be key,value pairs")
	}
	if len(labels) == 0 {
		return name, name
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, pair{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb, pb strings.Builder
	sb.WriteString(name)
	pb.WriteString(name)
	sb.WriteByte('{')
	pb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
			pb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteByte('=')
		sb.WriteString(p.v)
		pb.WriteString(p.k)
		pb.WriteString(`="`)
		pb.WriteString(promEscape(p.v))
		pb.WriteByte('"')
	}
	sb.WriteByte('}')
	pb.WriteByte('}')
	return sb.String(), pb.String()
}

// promEscape escapes a label value for the Prometheus text format.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// Counter returns (creating if needed) the counter for name plus
// alternating label key,value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key, prom := metricKey(name, labels)
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
		r.prom[key] = prom
	}
	return c
}

// Gauge returns (creating if needed) the gauge for name plus labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key, prom := metricKey(name, labels)
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
		r.prom[key] = prom
	}
	return g
}

// WriteJSON exports the registry as a two-section JSON object. Map keys
// are sorted by encoding/json, making the output deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	counters := make(map[string]int64, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c.v
	}
	gauges := make(map[string]float64, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g.v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}{counters, gauges})
}

// metricName extracts the bare metric name from a canonical key.
func metricName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// WriteProm exports the registry in the Prometheus text exposition
// format. Series are ordered by canonical key within each section and a
// single # TYPE line precedes each metric family, so identical
// registries produce byte-identical output.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeSection := func(keys []string, typ string, value func(key string) string) {
		sort.Strings(keys)
		lastName := ""
		for _, k := range keys {
			if name := metricName(k); name != lastName {
				fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
				lastName = name
			}
			fmt.Fprintf(bw, "%s %s\n", r.prom[k], value(k))
		}
	}
	ckeys := make([]string, 0, len(r.counters))
	for k := range r.counters {
		ckeys = append(ckeys, k)
	}
	writeSection(ckeys, "counter", func(k string) string {
		return strconv.FormatInt(r.counters[k].v, 10)
	})
	gkeys := make([]string, 0, len(r.gauges))
	for k := range r.gauges {
		gkeys = append(gkeys, k)
	}
	writeSection(gkeys, "gauge", func(k string) string {
		return strconv.FormatFloat(r.gauges[k].v, 'g', -1, 64)
	})
	return bw.Flush()
}

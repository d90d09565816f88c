// Package obs is the repo's zero-dependency observability layer
// (DESIGN.md §10): a metrics registry of counters, gauges, and
// fixed-bucket histograms with atomic updates and Prometheus text-format
// exposition, plus lightweight tracing spans for the pipeline stages.
//
// Two contracts hold everywhere obs is used:
//
//   - Instrumentation never touches the numeric path. Metrics and spans
//     record what happened; they are never read back by the algorithms,
//     so results stay bit-identical at any worker count with observability
//     on, off, or sampled mid-run.
//   - Updates are cheap and lock-free. Counters, gauges, and histogram
//     buckets are single atomic operations, safe from any goroutine; the
//     registry's maps are only locked on family/child creation (done once,
//     at package init or first use) and on snapshot.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MetricType discriminates the three family kinds.
type MetricType int

const (
	CounterType MetricType = iota
	GaugeType
	HistogramType
)

// String returns the Prometheus TYPE keyword.
func (t MetricType) String() string {
	switch t {
	case CounterType:
		return "counter"
	case GaugeType:
		return "gauge"
	case HistogramType:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry (or use Default).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*Family
}

// Default is the process-wide registry every package-level metric lives
// in — the one /metrics serves.
var Default = NewRegistry()

// NewRegistry returns an empty registry (isolated registries are for
// tests; production metrics belong in Default).
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

// Family is one named metric family: a type, a help string, a label
// schema, and the children (one per label-value tuple). A family with no
// labels has exactly one child, keyed by the empty tuple.
type Family struct {
	name    string
	help    string
	typ     MetricType
	labels  []string
	buckets []float64 // histogram upper bounds (ascending, +Inf implicit)

	mu       sync.RWMutex
	children map[string]any // joined label values → *Counter | *Gauge | *Histogram
}

func (r *Registry) register(name, help string, typ MetricType, buckets []float64, labels []string) *Family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &Family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]any),
	}
	r.families[name] = f
	return f
}

// child returns (creating on demand) the metric for the given label
// values. The fast path is one RLock'd map lookup.
func (f *Family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := joinLabels(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var m any
	switch f.typ {
	case CounterType:
		m = &Counter{}
	case GaugeType:
		m = &Gauge{}
	case HistogramType:
		m = newHistogram(f.buckets)
	}
	f.children[key] = m
	return m
}

// joinLabels builds the child map key. \x1f (unit separator) cannot appear
// in sane label values; escaping is not worth the hot-path cost.
func joinLabels(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\x1f')
		}
		b = append(b, v...)
	}
	return string(b)
}

// Counter is a monotone event count: it only goes up, so a per-run count is
// a difference of two snapshots (Snapshot.Since).
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (CAS loop; gauges are not hot-path metrics).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (upper bounds,
// ascending; a +Inf bucket is implicit).
type Histogram struct {
	upper   []float64
	counts  []atomic.Uint64 // len(upper)+1; last is +Inf
	sumBits atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	for i := 1; i < len(upper); i++ {
		if !(upper[i] > upper[i-1]) {
			panic(fmt.Sprintf("obs: histogram buckets not ascending at %v", upper[i]))
		}
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper ≥ v (le semantics)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start (start, start·factor, …).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *Family }

// With returns the counter for the given label values, creating it on
// first use.
func (v CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *Family }

// With returns the gauge for the given label values.
func (v GaugeVec) With(values ...string) *Gauge { return v.f.child(values).(*Gauge) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *Family }

// With returns the histogram for the given label values.
func (v HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// NewCounter registers an unlabeled counter family and returns its sole
// child. Registering a name twice panics (metrics are created once, at
// package init).
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, CounterType, nil, nil).child(nil).(*Counter)
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, CounterType, nil, labels)}
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, GaugeType, nil, labels)}
}

// NewHistogram registers an unlabeled histogram family and returns its
// sole child.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, HistogramType, buckets, nil).child(nil).(*Histogram)
}

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	return HistogramVec{r.register(name, help, HistogramType, buckets, labels)}
}

// Snapshot is a point-in-time copy of a registry, families sorted by name
// and children by label tuple — the typed API behind the Prometheus
// exposition and tests.
type Snapshot []FamilySnapshot

// FamilySnapshot is one family's state.
type FamilySnapshot struct {
	Name   string
	Help   string
	Type   MetricType
	Labels []string
	// Metrics holds the children, sorted by label-value tuple. A family
	// that has never been touched with labels has none (its HELP/TYPE
	// header is still exposed).
	Metrics []MetricSnapshot
}

// MetricSnapshot is one child's state.
type MetricSnapshot struct {
	LabelValues []string
	// Value is the counter count or gauge level (unused for histograms).
	Value float64
	// Buckets (histograms) hold cumulative counts per upper bound; the
	// last entry is the +Inf bucket.
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	Upper float64 // math.Inf(1) for the +Inf bucket
	Count uint64  // observations with value ≤ Upper
}

// Snapshot copies the registry. Concurrent updates may land between two
// children's reads (snapshots are consistent per atomic value, not
// globally), which is the standard scrape semantics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	fams := make([]*Family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make(Snapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ, Labels: f.labels}
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ms := MetricSnapshot{}
			if len(f.labels) > 0 {
				ms.LabelValues = splitLabels(k, len(f.labels))
			}
			switch m := f.children[k].(type) {
			case *Counter:
				ms.Value = float64(m.Value())
			case *Gauge:
				ms.Value = m.Value()
			case *Histogram:
				ms.Buckets = make([]Bucket, len(m.upper)+1)
				var cum uint64
				for i := range m.counts {
					cum += m.counts[i].Load()
					up := math.Inf(1)
					if i < len(m.upper) {
						up = m.upper[i]
					}
					ms.Buckets[i] = Bucket{Upper: up, Count: cum}
				}
				ms.Sum = m.Sum()
				ms.Count = ms.Buckets[len(ms.Buckets)-1].Count
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}

// Since returns how far every series moved from prev to s, keyed by family
// name plus `{v1,v2}` when the series has label values; a histogram
// contributes its `_sum` and `_count`. A series prev does not hold (a family
// or child first touched between the two snapshots) counts from zero.
func (s Snapshot) Since(prev Snapshot) map[string]float64 {
	out := s.series()
	for k, v := range prev.series() {
		out[k] -= v
	}
	return out
}

// series flattens a snapshot into the keys Since documents.
func (s Snapshot) series() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range s {
		for _, m := range f.Metrics {
			key := f.Name
			if len(m.LabelValues) > 0 {
				key += "{" + strings.Join(m.LabelValues, ",") + "}"
			}
			if f.Type == HistogramType {
				out[key+"_sum"] = m.Sum
				out[key+"_count"] = float64(m.Count)
			} else {
				out[key] = m.Value
			}
		}
	}
	return out
}

func splitLabels(key string, n int) []string {
	out := make([]string, 0, n)
	start := 0
	for i := 0; i < len(key); i++ {
		if key[i] == '\x1f' {
			out = append(out, key[start:i])
			start = i + 1
		}
	}
	return append(out, key[start:])
}

// Package metrics is the cluster's zero-dependency instrumentation
// layer: a registry of counters, gauges and log-scale histograms with
// labeled families and a structured snapshot API.
//
// The paper's thesis is that asynchronous propagation trades *bounded,
// measurable* inconsistency for performance (§2.1–2.2); this package is
// what makes the bound measurable on a running cluster — ε-budget
// consumption, queue depth, hold-back counts and commit→apply
// propagation lag, per site and per method.
//
// Design constraints, in order:
//
//   - Nil is a no-op everywhere.  A nil *Registry hands out nil vecs,
//     a nil vec hands out nil instruments, and every instrument method
//     is safe on a nil receiver — mirroring trace's nil *Ring — so the
//     uninstrumented hot path costs one predictable nil check and call
//     sites never guard.  The benchmark's trace.overhead_pct prices the
//     instrumented side.
//   - The instrumented hot path is lock-free and allocation-free:
//     Counter.Add, Gauge.Set and Histogram.Observe are single atomic
//     operations (histograms index a fixed power-of-two bucket array
//     with bits.Len64).  Label resolution (Vec.With) takes a mutex and
//     allocates, so call sites resolve their children once, up front.
//   - Only the standard library is imported.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.  The zero value is
// ready to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone counter not attached to any registry.
// Infrastructure that must count regardless of instrumentation (the
// queue and WAL fsync counters that benchmarks read via Syncs()) starts
// with a standalone counter and swaps in a registry child when the
// cluster is instrumented.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.  Safe on nil.
func (c *Counter) Inc() { c.Add(1) }

// Add increments by n.  Safe on nil.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.  Safe on nil (returns 0).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 (queue depths, remaining ε budget — which
// uses -1 for "unlimited").  The zero value is ready; nil discards.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.  Safe on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add increments by delta (may be negative).  Safe on nil.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.  Safe on nil (returns 0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of finite histogram buckets: bucket i
// counts observations v with v <= 2^i, so the finite range spans
// 1 .. 2^39 (in nanoseconds: 1ns .. ~9.2 minutes; in batch-size units:
// 1 .. ~5.5e11).  One extra slot counts overflow (+Inf).
const histBuckets = 40

// Histogram is a fixed-bucket, log-scale (powers of two) histogram.
// Observe is a single atomic add into the bucket array — no locks, no
// allocation — which is what lets per-message paths record latencies.
// Raw observations are int64 (e.g. nanoseconds); Scale converts bucket
// bounds and the sum to exported units (1e-9 for ns → seconds).
type Histogram struct {
	scale  float64
	counts [histBuckets + 1]atomic.Uint64
	sum    atomic.Int64
	n      atomic.Uint64
}

// bucketIndex returns the index of the smallest bucket bound >= v.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1)) // smallest i with 2^i >= v
	if i > histBuckets {
		return histBuckets // overflow bucket
	}
	return i
}

// Observe records one value.  Values at or below 1 land in the first
// bucket; values beyond 2^39 land in the overflow (+Inf) bucket.  Safe
// on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.  Safe on nil.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// kind discriminates metric families.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

// family is one named metric with a fixed label schema and one child
// instrument per label-value combination.
type family struct {
	name   string
	help   string
	kind   kind
	scale  float64 // histograms only
	labels []string

	mu       sync.Mutex
	children map[string]any // joined label values -> *Counter/*Gauge/*Histogram
	order    []string       // creation order of child keys
}

// labelSep joins label values into child keys.  0xff never appears in
// the label values this codebase generates.
const labelSep = "\xff"

func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		switch f.kind {
		case counterKind:
			c = &Counter{}
		case gaugeKind:
			c = &Gauge{}
		default:
			c = &Histogram{scale: f.scale}
		}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns (creating if needed) the child for the label values, in
// the order the family's label names were declared.  Safe on nil
// (returns a nil child).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the child gauge for the label values.  Safe on nil.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct {
	f      *family
	prefix []string // label values pre-bound by Curry
}

// With returns the child histogram for the label values.  Safe on nil.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	if len(v.prefix) > 0 {
		values = append(append(make([]string, 0, len(v.prefix)+len(values)), v.prefix...), values...)
	}
	return v.f.child(values).(*Histogram)
}

// Curry returns a vec with the leading label values pre-bound, so a
// component can receive a family partially resolved (e.g. the site
// already fixed) and fill in the remaining labels at observation time.
// Safe on nil.
func (v *HistogramVec) Curry(values ...string) *HistogramVec {
	if v == nil {
		return nil
	}
	return &HistogramVec{f: v.f, prefix: append(append([]string(nil), v.prefix...), values...)}
}

// Registry holds metric families.  All methods are safe for concurrent
// use and safe on a nil receiver (they return nil vecs, whose children
// are nil instruments, whose operations are no-ops).
type Registry struct {
	mu          sync.Mutex
	families    map[string]*family
	order       []string
	constLabels [][2]string // sorted (name, value) pairs stamped on every series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// SetConstLabels installs labels appended to every exported series —
// the cluster stamps method=<name> here so one scrape distinguishes
// ORDUP from COMMU runs.  Safe on nil.
func (r *Registry) SetConstLabels(labels map[string]string) {
	if r == nil {
		return
	}
	pairs := make([][2]string, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, [2]string{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	r.mu.Lock()
	r.constLabels = pairs
	r.mu.Unlock()
}

// register returns the family with the given name, creating it on first
// use.  Re-registering a name returns the existing family (families are
// per-cluster singletons; schemas never conflict within this codebase).
func (r *Registry) register(name, help string, k kind, scale float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		return f
	}
	f := &family{
		name: name, help: help, kind: k, scale: scale,
		labels:   labels,
		children: make(map[string]any),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter declares (or fetches) a counter family.  Safe on nil.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, counterKind, 1, labelNames)}
}

// Gauge declares (or fetches) a gauge family.  Safe on nil.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, gaugeKind, 1, labelNames)}
}

// ScaleNanos converts nanosecond observations to exported seconds.
const ScaleNanos = 1e-9

// Histogram declares (or fetches) a histogram family.  scale converts
// raw int64 observations to exported units (use ScaleNanos for
// durations observed in nanoseconds and exported as _seconds).  Safe on
// nil.
func (r *Registry) Histogram(name, help string, scale float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if scale == 0 {
		scale = 1
	}
	return &HistogramVec{f: r.register(name, help, histogramKind, scale, labelNames)}
}

// Series is one exported counter or gauge sample.
type Series struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Bucket is one cumulative histogram bucket: Count observations at or
// below UpperBound (math.Inf(1) for the overflow bucket, which JSON
// marshals via LE below).
type Bucket struct {
	// LE is the bucket's inclusive upper bound in exported units;
	// "+Inf" is encoded as le: null in JSON (math.Inf is not a JSON
	// number), so consumers treat a missing bound as +Inf.
	LE    *float64 `json:"le"`
	Count uint64   `json:"count"`
}

// HistSeries is one exported histogram sample.
type HistSeries struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []Bucket          `json:"buckets"`
}

// Quantile estimates the q-quantile (0 < q <= 1) from the cumulative
// buckets, returning the upper bound of the bucket where the quantile
// falls (a conservative, at-most-one-bucket-high estimate).  Returns 0
// with no observations; +Inf when the quantile lands in the overflow
// bucket.
func (h HistSeries) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank == 0 {
		rank = 1
	}
	for _, b := range h.Buckets {
		if b.Count >= rank {
			if b.LE == nil {
				return math.Inf(1)
			}
			return *b.LE
		}
	}
	return math.Inf(1)
}

// Snapshot is a point-in-time copy of every series in a registry,
// structured for JSON (the /metrics.json endpoint esrtop polls).
type Snapshot struct {
	Counters   []Series     `json:"counters"`
	Gauges     []Series     `json:"gauges"`
	Histograms []HistSeries `json:"histograms"`
}

// Find returns the first series with the given name whose labels all
// match want (want may be a subset), or false.
func (s Snapshot) Find(name string, want map[string]string) (Series, bool) {
	for _, list := range [][]Series{s.Counters, s.Gauges} {
		for _, se := range list {
			if se.Name == name && labelsMatch(se.Labels, want) {
				return se, true
			}
		}
	}
	return Series{}, false
}

// FindHistogram is Find over the histogram series.
func (s Snapshot) FindHistogram(name string, want map[string]string) (HistSeries, bool) {
	for _, h := range s.Histograms {
		if h.Name == name && labelsMatch(h.Labels, want) {
			return h, true
		}
	}
	return HistSeries{}, false
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// NumSeries counts every exported series (one per counter/gauge child,
// one per histogram child).
func (s Snapshot) NumSeries() int {
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}

// Snapshot captures every family's current children and values.  Safe
// on nil (returns an empty snapshot).  It takes the registry and family
// locks briefly but reads instrument values with the same atomics the
// writers use, so it can run concurrently with the hot path.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	consts := append([][2]string(nil), r.constLabels...)
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]any, 0, len(keys))
		for _, k := range keys {
			children = append(children, f.children[k])
		}
		f.mu.Unlock()
		for i, key := range keys {
			labels := labelMap(f.labels, key, consts)
			switch c := children[i].(type) {
			case *Counter:
				snap.Counters = append(snap.Counters, Series{Name: f.name, Labels: labels, Value: float64(c.Value())})
			case *Gauge:
				snap.Gauges = append(snap.Gauges, Series{Name: f.name, Labels: labels, Value: float64(c.Value())})
			case *Histogram:
				snap.Histograms = append(snap.Histograms, histSeries(f, c, labels))
			}
		}
	}
	return snap
}

// histSeries copies one histogram child into its exported form with
// cumulative buckets.  Empty leading/trailing buckets are trimmed (the
// first populated through the last populated bucket are kept, plus the
// +Inf bucket) so snapshots and the text exposition stay readable.
func histSeries(f *family, h *Histogram, labels map[string]string) HistSeries {
	out := HistSeries{Name: f.name, Labels: labels}
	var counts [histBuckets + 1]uint64
	first, last := -1, -1
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		if counts[i] > 0 && i < histBuckets {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	out.Count = h.n.Load()
	out.Sum = float64(h.sum.Load()) * h.scale
	if first < 0 {
		first, last = 0, -1 // only the +Inf bucket
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += counts[i]
		if i < first || i > last {
			continue
		}
		le := math.Ldexp(1, i) * h.scale // 2^i in exported units
		out.Buckets = append(out.Buckets, Bucket{LE: &le, Count: cum})
	}
	cum += counts[histBuckets]
	out.Buckets = append(out.Buckets, Bucket{LE: nil, Count: cum})
	return out
}

// labelMap rebuilds a child's label map from its joined key plus the
// registry's const labels.
func labelMap(names []string, key string, consts [][2]string) map[string]string {
	if len(names) == 0 && len(consts) == 0 {
		return nil
	}
	m := make(map[string]string, len(names)+len(consts))
	if len(names) > 0 {
		values := strings.Split(key, labelSep)
		for i, n := range names {
			if i < len(values) {
				m[n] = values[i]
			}
		}
	}
	for _, kv := range consts {
		m[kv[0]] = kv[1]
	}
	return m
}

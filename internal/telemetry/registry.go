// Package telemetry is the observability layer of the PULSE reproduction:
// a zero-dependency labeled metric registry rendered in the Prometheus text
// exposition format, a structured controller-decision event log (ring
// buffer plus optional JSONL sink), and the nil-safe Observer interface
// through which the core optimizers, the cluster engine, and the live
// runtime report what they decided and why.
//
// Everything is concurrency-safe. Series updates are lock-free (atomic CAS
// on float bits) and Telemetry finds a sample's series by indexing a slot
// table (slots.go): the invocation stream takes no lock once a function's
// series exist, the barrier-serialized streams share one mutex nobody else
// contends for, the decision log has its own. A first touch never creates a
// series under a lock a later sample needs, and a scrape holds a family's
// lock only to snapshot it, so scrapes cannot stall samples (DESIGN.md
// §6.10). The Nop observer adds zero allocations, so uninstrumented
// deployments pay nothing.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType enumerates the exposition TYPE of a metric family.
type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	case histogramType:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). Families render in registration
// order; series within a family render in sorted label order, so output is
// deterministic and diffable.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric with a fixed label schema and many series.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64      // histogram upper bounds, strictly increasing, +Inf implicit
	fn      func() float64 // non-nil for scrape-time func metrics (unlabeled)

	mu     sync.RWMutex
	series map[string]*series
}

// series is one label combination's state. Counter and gauge values live in
// valBits as IEEE 754 bits so updates are a single atomic CAS; histograms
// additionally carry per-bucket counts.
type series struct {
	labelValues []string
	valBits     uint64   // counter/gauge value; histogram sum
	count       uint64   // histogram observation count
	bucketN     []uint64 // histogram per-bucket (non-cumulative) counts
}

func (s *series) add(v float64) {
	for {
		old := atomic.LoadUint64(&s.valBits)
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&s.valBits, old, upd) {
			return
		}
	}
}

func (s *series) set(v float64) { atomic.StoreUint64(&s.valBits, math.Float64bits(v)) }

func (s *series) value() float64 { return math.Float64frombits(atomic.LoadUint64(&s.valBits)) }

// validName matches the Prometheus metric-name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validLabel matches the Prometheus label-name grammar (no colons).
func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help string, typ metricType, labels []string, buckets []float64, fn func() float64) (*family, error) {
	if !validName(name) {
		return nil, fmt.Errorf("telemetry: invalid metric name %q", name)
	}
	for _, l := range labels {
		if !validLabel(l) {
			return nil, fmt.Errorf("telemetry: metric %s: invalid label name %q", name, l)
		}
		if typ == histogramType && l == "le" {
			return nil, fmt.Errorf("telemetry: metric %s: label %q is reserved for histogram buckets", name, l)
		}
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			return nil, fmt.Errorf("telemetry: metric %s: buckets not strictly increasing at %v", name, buckets[i])
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return nil, fmt.Errorf("telemetry: metric %q already registered", name)
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		fn:      fn,
		series:  make(map[string]*series),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f, nil
}

// labelSep joins label values into a map key. 0xff cannot appear in UTF-8
// text at a value boundary ambiguity: values containing it still produce
// distinct keys because the count of separators is fixed by the schema.
const labelSep = "\xff"

// with resolves (creating on first use) the series for the given label
// values. It panics on arity mismatch — a programmer error, like indexing
// out of range.
func (f *family) with(values []string) *series {
	key := f.key(values)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	return f.create(key, values)
}

// fresh is with minus the shared-lock probe, for a caller whose own handle
// table says the series was never resolved (the probe would miss).
func (f *family) fresh(values []string) *series { return f.create(f.key(values), values) }

func (f *family) key(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s called with %d label values, schema has %d", f.name, len(values), len(f.labels)))
	}
	return strings.Join(values, labelSep)
}

func (f *family) create(key string, values []string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s != nil {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if f.typ == histogramType {
		s.bucketN = make([]uint64, len(f.buckets))
	}
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing series handle.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.add(1) }

// Gauge is a series handle for a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.s.set(v) }

// Histogram is a fixed-bucket distribution series handle.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one observation of v.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v in one step — the batch form the
// cluster engine uses when a minute delivers many identical invocations.
func (h *Histogram) ObserveN(v float64, n uint64) { h.s.observe(h.buckets, v, n) }

// observe is ObserveN for callers that keep the series, not a handle.
func (s *series) observe(buckets []float64, v float64, n uint64) {
	if n == 0 {
		return
	}
	for i, ub := range buckets {
		if v <= ub {
			atomic.AddUint64(&s.bucketN[i], n)
			break
		}
	}
	atomic.AddUint64(&s.count, n)
	s.add(v * float64(n))
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). It panics when the number of values does not match the schema.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.with(labelValues)}
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.with(labelValues)}
}

// HistogramVec is a labeled histogram family with shared buckets.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{s: v.f.with(labelValues), buckets: v.f.buckets}
}

// NewCounterVec registers a counter family with the given label schema.
// Zero label names make an unlabeled family addressed via With().
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) (*CounterVec, error) {
	f, err := r.register(name, help, counterType, labelNames, nil, nil)
	if err != nil {
		return nil, err
	}
	return &CounterVec{f: f}, nil
}

// NewGaugeVec registers a gauge family with the given label schema.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) (*GaugeVec, error) {
	f, err := r.register(name, help, gaugeType, labelNames, nil, nil)
	if err != nil {
		return nil, err
	}
	return &GaugeVec{f: f}, nil
}

// DefServiceTimeBuckets spans the catalog's service times: milliseconds of
// warm small-model execution up to tens of seconds of multi-GB cold starts.
func DefServiceTimeBuckets() []float64 {
	return []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// NewHistogramVec registers a histogram family. Buckets are upper bounds in
// strictly increasing order; the +Inf bucket is implicit. nil buckets
// select DefServiceTimeBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) (*HistogramVec, error) {
	if buckets == nil {
		buckets = DefServiceTimeBuckets()
	}
	f, err := r.register(name, help, histogramType, labelNames, buckets, nil)
	if err != nil {
		return nil, err
	}
	return &HistogramVec{f: f}, nil
}

// NewCounterFunc registers an unlabeled counter whose value is read from fn
// at scrape time — the bridge for counters owned elsewhere (runtime stats).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) error {
	if fn == nil {
		return fmt.Errorf("telemetry: metric %s: nil value func", name)
	}
	_, err := r.register(name, help, counterType, nil, nil, fn)
	return err
}

// NewGaugeFunc registers an unlabeled gauge read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) error {
	if fn == nil {
		return fmt.Errorf("telemetry: metric %s: nil value func", name)
	}
	_, err := r.register(name, help, gaugeType, nil, nil, fn)
	return err
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value. Prometheus accepts Go's shortest
// round-trip float syntax; infinities spell +Inf/-Inf.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {a="x",b="y"}; an empty schema renders nothing.
func writeLabels(b *strings.Builder, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// WritePrometheus renders every family in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		if f.fn != nil {
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(formatValue(f.fn()))
			b.WriteByte('\n')
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
			continue
		}
		// Snapshot under the read lock, format after releasing it: rendering
		// a 100k-function family takes seconds, and a series creation queued
		// behind a held read lock parks every later reader of the family.
		type keyed struct {
			key string
			s   *series
		}
		f.mu.RLock()
		snap := make([]keyed, 0, len(f.series))
		for k, s := range f.series {
			snap = append(snap, keyed{k, s})
		}
		f.mu.RUnlock()
		slices.SortFunc(snap, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
		for _, ks := range snap {
			s := ks.s
			if f.typ == histogramType {
				var cum uint64
				for i, ub := range f.buckets {
					cum += atomic.LoadUint64(&s.bucketN[i])
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, f.labels, s.labelValues, "le", formatValue(ub))
					b.WriteByte(' ')
					b.WriteString(strconv.FormatUint(cum, 10))
					b.WriteByte('\n')
				}
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(&b, f.labels, s.labelValues, "le", "+Inf")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(atomic.LoadUint64(&s.count), 10))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, f.labels, s.labelValues, "", "")
				b.WriteByte(' ')
				b.WriteString(formatValue(s.value()))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, f.labels, s.labelValues, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(atomic.LoadUint64(&s.count), 10))
				b.WriteByte('\n')
				continue
			}
			b.WriteString(f.name)
			writeLabels(&b, f.labels, s.labelValues, "", "")
			b.WriteByte(' ')
			b.WriteString(formatValue(s.value()))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

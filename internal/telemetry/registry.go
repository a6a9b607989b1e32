// Package telemetry is the observability layer of the PULSE reproduction:
// a zero-dependency metric registry rendered in the Prometheus text
// exposition format, a structured controller-decision event log (ring
// buffer plus optional JSONL sink), and the nil-safe Observer interface
// through which the core optimizers, the cluster engine, and the live
// runtime report what they decided and why.
//
// Everything is concurrency-safe. Every producer delivers its samples from
// inside a write window, one at a time, so Telemetry keeps its series as
// plain counts — the per-function ones in columns indexed by the sample's
// dense slot (slots.go) — written under one mutex: a sample hashes no map,
// formats no label and creates no series object. Concurrent producers
// sharing one Telemetry (simulation runs on a worker pool) serialize on that
// mutex. A scrape copies one 512-slot chunk at a time under it and formats
// after letting go, so scrapes cannot stall samples (DESIGN.md §6.10). The
// decision log has its own lock, and the Nop observer adds zero
// allocations, so uninstrumented deployments pay nothing.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). Families render in registration order;
// a labeled family's series render in the order of their label values
// joined by 0xff, so output is deterministic and diffable.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// family is one named metric: an unlabeled value read from fn at scrape
// time, or series its owner renders with write (Telemetry's counts).
type family struct {
	name  string
	help  string
	typ   string // the exposition TYPE: counter, gauge or histogram
	fn    func() float64
	write func(e *expo, name string)
}

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

func (r *Registry) register(f *family) error {
	if !validName(f.name) {
		return fmt.Errorf("telemetry: invalid metric name %q", f.name)
	}
	if f.fn == nil && f.write == nil {
		return fmt.Errorf("telemetry: metric %s: nil value func", f.name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if slices.ContainsFunc(r.families, func(g *family) bool { return g.name == f.name }) {
		return fmt.Errorf("telemetry: metric %q already registered", f.name)
	}
	r.families = append(r.families, f)
	return nil
}

// NewCounterFunc registers an unlabeled counter whose value is read from fn
// at scrape time — the bridge for counters owned elsewhere (runtime stats).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) error {
	return r.register(&family{name: name, help: help, typ: "counter", fn: fn})
}

// NewGaugeFunc registers an unlabeled gauge read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) error {
	return r.register(&family{name: name, help: help, typ: "gauge", fn: fn})
}

// helpEscaper escapes a HELP string per the exposition format.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// appendLabel appends name="value" with value escaped per the exposition
// format.
func appendLabel(b []byte, name, value string) []byte {
	b = append(append(b, name...), `="`...)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// appendValue appends a sample value. Prometheus accepts Go's shortest
// round-trip float syntax; infinities spell +Inf/-Inf.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// expo buffers exposition text and hands it to its writer in large pieces,
// so a 100k-function family is never held as one string.
type expo struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *expo) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// line appends one sample line: name and suffix, the label block (labels,
// then le="le" when le is set; none when both are empty) and the value
// value appends.
func (e *expo) line(name, suffix string, labels []byte, le string, value func([]byte) []byte) {
	b := append(append(e.buf, name...), suffix...)
	if len(labels) > 0 || le != "" {
		b = append(append(b, '{'), labels...)
		if le != "" {
			if len(labels) > 0 {
				b = append(b, ',')
			}
			b = append(append(append(b, `le="`...), le...), '"')
		}
		b = append(b, '}')
	}
	e.buf = append(value(append(b, ' ')), '\n')
	if len(e.buf) >= 64<<10 {
		e.flush()
	}
}

// float appends one float-valued sample line.
func (e *expo) float(name string, labels []byte, v float64) {
	e.line(name, "", labels, "", func(b []byte) []byte { return appendValue(b, v) })
}

// histogram appends a histogram's cumulative bucket lines, then _sum and
// _count: les holds the formatted bounds, n the per-bucket counts.
func (e *expo) histogram(name string, labels []byte, les []string, n []uint64, count uint64, sum float64) {
	var cum uint64
	appendCum := func(b []byte) []byte { return strconv.AppendUint(b, cum, 10) }
	for i, le := range les {
		cum += n[i]
		e.line(name, "_bucket", labels, le, appendCum)
	}
	cum = count
	e.line(name, "_bucket", labels, "+Inf", appendCum)
	e.line(name, "_sum", labels, "", func(b []byte) []byte { return appendValue(b, sum) })
	e.line(name, "_count", labels, "", appendCum)
}

// formatBounds formats histogram upper bounds as le label values.
func formatBounds(bounds []float64) []string {
	les := make([]string, len(bounds))
	for i, ub := range bounds {
		les[i] = string(appendValue(nil, ub))
	}
	return les
}

// WritePrometheus renders every family in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	e := &expo{w: w}
	for _, f := range fams {
		e.buf = fmt.Appendf(e.buf, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.typ)
		if f.fn != nil {
			e.float(f.name, nil, f.fn())
		} else {
			f.write(e, f.name)
		}
		if e.err != nil {
			return e.err
		}
	}
	e.flush()
	return e.err
}

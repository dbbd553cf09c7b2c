package telemetry

import (
	"fmt"
	"strconv"
	"strings"
)

// Exposition is the metrics sample model behind the /metrics endpoint,
// rendered as OpenMetrics 1.0 text. Producers declare each metric family
// once, then append typed samples in whatever order they naturally
// iterate; each sample is kept under its family as it is added, so the
// rendering writes contiguous families, each with its HELP and TYPE
// metadata, in declaration order.

// MetricType is the OpenMetrics family type.
type MetricType string

const (
	TypeCounter MetricType = "counter"
	TypeGauge   MetricType = "gauge"
)

// Label is one name="value" pair. Order is significant: samples render
// labels in the order given.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// sample is one exposition line; its name is its family's.
type sample struct {
	labels   []Label
	intVal   int64
	floatVal float64
	isFloat  bool
}

// family is one metric family: its metadata and its samples in insertion
// order. name is the sample name; the OpenMetrics family name applies the
// counter convention: a counter family "foo" has samples named
// "foo_total".
type family struct {
	name    string
	typ     MetricType
	help    string
	samples []sample
}

// Exposition accumulates samples for one scrape.
type Exposition struct {
	families []*family          // declaration order
	byName   map[string]*family // keyed by sample name
}

// NewExposition returns an empty sample set.
func NewExposition() *Exposition {
	return &Exposition{byName: map[string]*family{}}
}

// Family declares metadata for the samples named name (the full sample
// name, e.g. "serving_requests_total" for a counter). Declaring a family
// twice keeps the first metadata. A sample whose name was never declared
// opens an untyped gauge family with no HELP text where it is added.
func (e *Exposition) Family(name string, typ MetricType, help string) {
	e.declare(name, typ, help)
}

// declare returns the family for name, declaring it when it is new.
func (e *Exposition) declare(name string, typ MetricType, help string) *family {
	if f, ok := e.byName[name]; ok {
		return f
	}
	f := &family{name: name, typ: typ, help: help}
	e.byName[name] = f
	e.families = append(e.families, f)
	return f
}

// Int appends one integer-valued sample (rendered with %d).
func (e *Exposition) Int(name string, v int64, labels ...Label) {
	f := e.declare(name, TypeGauge, "")
	f.samples = append(f.samples, sample{labels: labels, intVal: v})
}

// Float appends one float-valued sample (rendered with %.3f, millisecond
// precision for the *_ms series).
func (e *Exposition) Float(name string, v float64, labels ...Label) {
	f := e.declare(name, TypeGauge, "")
	f.samples = append(f.samples, sample{labels: labels, floatVal: v, isFloat: true})
}

// escapeOM escapes a label value per the OpenMetrics text format:
// backslash, double-quote and newline.
func escapeOM(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeOMHelp escapes HELP text: backslash and newline (quotes are legal
// in help text).
func escapeOMHelp(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// omLabels renders the label set with OpenMetrics escaping.
func omLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeOM(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func (s *sample) value() string {
	if s.isFloat {
		return fmt.Sprintf("%.3f", s.floatVal)
	}
	return strconv.FormatInt(s.intVal, 10)
}

// omFamilyName maps a sample name to its OpenMetrics family name: counter
// samples are named <family>_total, so the family strips the suffix.
func omFamilyName(sampleName string, typ MetricType) string {
	if typ == TypeCounter {
		return strings.TrimSuffix(sampleName, "_total")
	}
	return sampleName
}

// RenderOpenMetrics writes the OpenMetrics 1.0 text format: each family
// with samples, in declaration order, is one contiguous block preceded by
// its # HELP and # TYPE lines; counter families drop the _total suffix
// from the family name while their samples keep it; the output ends with
// the mandatory # EOF line.
func (e *Exposition) RenderOpenMetrics() string {
	var b strings.Builder
	for _, f := range e.families {
		if len(f.samples) == 0 {
			continue
		}
		fname := omFamilyName(f.name, f.typ)
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fname, escapeOMHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fname, f.typ)
		for i := range f.samples {
			s := &f.samples[i]
			b.WriteString(f.name)
			b.WriteString(omLabels(s.labels))
			b.WriteByte(' ')
			b.WriteString(s.value())
			b.WriteByte('\n')
		}
	}
	b.WriteString("# EOF\n")
	return b.String()
}

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

// ---------------------------------------------------------------------------
// Strict OpenMetrics parsing — shared by the tfjs-profile live view and
// the format tests, so what the renderer emits is continuously checked
// against what a consumer accepts.

// ParsedSample is one parsed exposition line.
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns one label's value ("" when absent).
func (s ParsedSample) Label(name string) string { return s.Labels[name] }

// ParsedFamily is one metric family: its metadata plus samples in
// exposition order.
type ParsedFamily struct {
	Name    string // family name (no _total suffix for counters)
	Type    MetricType
	Help    string
	Samples []ParsedSample
}

// Parsed is one parsed scrape.
type Parsed struct {
	Families []ParsedFamily
	byName   map[string]*ParsedFamily
}

// Family returns the named family (nil when absent).
func (p *Parsed) Family(name string) *ParsedFamily { return p.byName[name] }

// Value returns the value of the sample with the given full sample name
// whose labels are a superset of want (nil matches any). The second
// result reports whether such a sample exists.
func (p *Parsed) Value(sampleName string, want map[string]string) (float64, bool) {
	for i := range p.Families {
		for _, s := range p.Families[i].Samples {
			if s.Name != sampleName {
				continue
			}
			match := true
			for k, v := range want {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// Samples returns every sample with the given full sample name across all
// families.
func (p *Parsed) Samples(sampleName string) []ParsedSample {
	var out []ParsedSample
	for i := range p.Families {
		for _, s := range p.Families[i].Samples {
			if s.Name == sampleName {
				out = append(out, s)
			}
		}
	}
	return out
}

// validMetricName reports whether s is a legal metric/label identifier.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// sampleBelongs reports whether a sample name is legal inside the family:
// exactly the family name, or family name + a recognized counter suffix.
func sampleBelongs(famName, sampleName string, typ MetricType) bool {
	if typ == TypeCounter {
		return sampleName == famName+"_total" || sampleName == famName+"_created"
	}
	return sampleName == famName
}

// parseFam is one family under construction, with the once-only flags the
// strict checks need.
type parseFam struct {
	ParsedFamily
	typeSet bool
	helpSet bool
}

// ParseExposition parses OpenMetrics text strictly: metadata (# HELP,
// # TYPE) must precede a family's samples and appear at most once per
// family, families must be contiguous (a sample from an earlier family
// reappearing after another family started is an error), label values must
// use valid escaping, sample names must match their family per the
// counter _total convention, and the input must end with "# EOF".
func ParseExposition(text string) (*Parsed, error) {
	fams := map[string]*parseFam{}
	var order []*parseFam
	var cur *parseFam
	// open starts (or errors on reopening) the family named name.
	open := func(name string, lineNo int) error {
		if fams[name] != nil {
			return fmt.Errorf("openmetrics: line %d: family %q reopened (families must be contiguous)", lineNo, name)
		}
		cur = &parseFam{ParsedFamily: ParsedFamily{Name: name, Type: TypeGauge}}
		fams[name] = cur
		order = append(order, cur)
		return nil
	}
	sawEOF := false
	lines := strings.Split(text, "\n")
	for li, line := range lines {
		lineNo := li + 1
		if line == "" {
			// Only the trailing newline's empty remainder is allowed.
			if li != len(lines)-1 {
				return nil, fmt.Errorf("openmetrics: line %d: blank line", lineNo)
			}
			continue
		}
		if sawEOF {
			return nil, fmt.Errorf("openmetrics: line %d: content after # EOF", lineNo)
		}
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseMetaLine(line, lineNo)
			if err != nil {
				return nil, err
			}
			if cur == nil || cur.Name != name {
				if err := open(name, lineNo); err != nil {
					return nil, err
				}
			}
			if len(cur.Samples) > 0 {
				return nil, fmt.Errorf("openmetrics: line %d: # %s %s after samples of the family", lineNo, kind, name)
			}
			switch kind {
			case "HELP":
				if cur.helpSet {
					return nil, fmt.Errorf("openmetrics: line %d: duplicate HELP for %q", lineNo, name)
				}
				cur.helpSet = true
				cur.Help = rest
			case "TYPE":
				if cur.typeSet {
					return nil, fmt.Errorf("openmetrics: line %d: duplicate TYPE for %q", lineNo, name)
				}
				cur.typeSet = true
				switch rest {
				case "counter":
					cur.Type = TypeCounter
				case "gauge":
					cur.Type = TypeGauge
				default:
					return nil, fmt.Errorf("openmetrics: line %d: unsupported type %q", lineNo, rest)
				}
			}
			continue
		}
		s, err := parseSampleLine(line, lineNo)
		if err != nil {
			return nil, err
		}
		if cur == nil || !sampleBelongs(cur.Name, s.Name, cur.Type) {
			// A sample with no preceding metadata opens its own untyped
			// family named after the sample.
			if err := open(s.Name, lineNo); err != nil {
				return nil, err
			}
		}
		cur.Samples = append(cur.Samples, s)
	}
	if !sawEOF {
		return nil, fmt.Errorf("openmetrics: missing # EOF terminator")
	}
	p := &Parsed{byName: map[string]*ParsedFamily{}}
	for _, f := range order {
		p.Families = append(p.Families, f.ParsedFamily)
	}
	for i := range p.Families {
		p.byName[p.Families[i].Name] = &p.Families[i]
	}
	return p, nil
}

// parseMetaLine parses "# HELP name text" / "# TYPE name type".
func parseMetaLine(line string, lineNo int) (kind, name, rest string, err error) {
	body, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return "", "", "", fmt.Errorf("openmetrics: line %d: malformed comment %q (want \"# HELP\" / \"# TYPE\" / \"# EOF\")", lineNo, line)
	}
	kind, body, ok = strings.Cut(body, " ")
	if !ok || (kind != "HELP" && kind != "TYPE") {
		return "", "", "", fmt.Errorf("openmetrics: line %d: unknown metadata %q", lineNo, line)
	}
	name, rest, ok = strings.Cut(body, " ")
	if !ok || !validMetricName(name) {
		return "", "", "", fmt.Errorf("openmetrics: line %d: malformed %s line %q", lineNo, kind, line)
	}
	return kind, name, rest, nil
}

// parseSampleLine parses one `name{labels} value` line with strict
// escaping rules.
func parseSampleLine(line string, lineNo int) (ParsedSample, error) {
	s := ParsedSample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("openmetrics: line %d: invalid metric name %q", lineNo, s.Name)
	}
	if i < len(line) && line[i] == '{' {
		i++ // consume '{'
		for {
			if i >= len(line) {
				return s, fmt.Errorf("openmetrics: line %d: unterminated label set", lineNo)
			}
			if line[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(line) && line[j] != '=' {
				j++
			}
			if j >= len(line) {
				return s, fmt.Errorf("openmetrics: line %d: malformed label (missing =)", lineNo)
			}
			lname := line[i:j]
			if !validMetricName(lname) {
				return s, fmt.Errorf("openmetrics: line %d: invalid label name %q", lineNo, lname)
			}
			if _, dup := s.Labels[lname]; dup {
				return s, fmt.Errorf("openmetrics: line %d: duplicate label %q", lineNo, lname)
			}
			i = j + 1
			if i >= len(line) || line[i] != '"' {
				return s, fmt.Errorf("openmetrics: line %d: label value must be quoted", lineNo)
			}
			i++
			var val strings.Builder
			for {
				if i >= len(line) {
					return s, fmt.Errorf("openmetrics: line %d: unterminated label value", lineNo)
				}
				c := line[i]
				if c == '"' {
					i++
					break
				}
				if c == '\\' {
					if i+1 >= len(line) {
						return s, fmt.Errorf("openmetrics: line %d: dangling escape in label value", lineNo)
					}
					switch line[i+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return s, fmt.Errorf("openmetrics: line %d: invalid escape \\%c in label value", lineNo, line[i+1])
					}
					i += 2
					continue
				}
				val.WriteByte(c)
				i++
			}
			s.Labels[lname] = val.String()
			if i < len(line) && line[i] == ',' {
				i++
				continue
			}
			if i < len(line) && line[i] == '}' {
				i++
				break
			}
			return s, fmt.Errorf("openmetrics: line %d: expected ',' or '}' in label set", lineNo)
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return s, fmt.Errorf("openmetrics: line %d: missing value separator", lineNo)
	}
	valStr := line[i+1:]
	if valStr == "" || strings.ContainsAny(valStr, " \t") {
		return s, fmt.Errorf("openmetrics: line %d: malformed value %q", lineNo, valStr)
	}
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return s, fmt.Errorf("openmetrics: line %d: bad sample value %q: %v", lineNo, valStr, err)
	}
	s.Value = v
	return s, nil
}

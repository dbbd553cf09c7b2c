// Package telemetrytest is the strict OpenMetrics parser the tests read
// /metrics scrapes and telemetry.Exposition renderings back through, so
// what the renderer emits is continuously checked against what a scraper
// accepts. Only tests import it.
package telemetrytest

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

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
	Type    telemetry.MetricType
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
func sampleBelongs(famName, sampleName string, typ telemetry.MetricType) bool {
	if typ == telemetry.TypeCounter {
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
		cur = &parseFam{ParsedFamily: ParsedFamily{Name: name, Type: telemetry.TypeGauge}}
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
					cur.Type = telemetry.TypeCounter
				case "gauge":
					cur.Type = telemetry.TypeGauge
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

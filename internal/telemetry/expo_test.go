package telemetry

import (
	"strings"
	"testing"
)

// buildTestExposition assembles a small two-family scrape exercising
// counters, gauges, float rendering and labels.
func buildTestExposition() *Exposition {
	e := NewExposition()
	e.Family("requests_total", TypeCounter, "Requests served.")
	e.Family("queue_depth", TypeGauge, "Requests waiting.")
	e.Int("requests_total", 32, L("model", "mobilenet"), L("outcome", "ok"))
	e.Int("requests_total", 2, L("model", "mobilenet"), L("outcome", "error"))
	e.Float("queue_depth", 3, L("model", "mobilenet"))
	return e
}

// TestRenderOpenMetricsFormat pins the rendering byte for byte: families
// in declaration order, HELP then TYPE then samples in insertion order,
// counter family names without _total, %d ints, %.3f floats, # EOF.
func TestRenderOpenMetricsFormat(t *testing.T) {
	got := buildTestExposition().RenderOpenMetrics()
	want := `# HELP requests Requests served.
# TYPE requests counter
requests_total{model="mobilenet",outcome="ok"} 32
requests_total{model="mobilenet",outcome="error"} 2
# HELP queue_depth Requests waiting.
# TYPE queue_depth gauge
queue_depth{model="mobilenet"} 3.000
# EOF
`
	if got != want {
		t.Errorf("RenderOpenMetrics:\n%q\nwant:\n%q", got, want)
	}
}

// TestRenderOpenMetricsRoundTrip checks the OM renderer's output against
// the strict parser: families contiguous, HELP before TYPE before samples,
// counter family names stripped of _total, terminated by # EOF.
func TestRenderOpenMetricsRoundTrip(t *testing.T) {
	text := buildTestExposition().RenderOpenMetrics()
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("output does not end with # EOF:\n%s", text)
	}
	p, err := ParseExposition(text)
	if err != nil {
		t.Fatalf("renderer output rejected by strict parser: %v\n%s", err, text)
	}
	fam := p.Family("requests")
	if fam == nil {
		t.Fatalf("counter family %q missing (got %+v)", "requests", p.Families)
	}
	if fam.Type != TypeCounter || fam.Help != "Requests served." {
		t.Errorf("requests family metadata: %+v", fam)
	}
	if v, ok := p.Value("requests_total", map[string]string{"model": "mobilenet", "outcome": "ok"}); !ok || v != 32 {
		t.Errorf("requests_total ok = %v, %v", v, ok)
	}
	if v, ok := p.Value("queue_depth", map[string]string{"model": "mobilenet"}); !ok || v != 3 {
		t.Errorf("queue_depth = %v, %v", v, ok)
	}
	// HELP must come before TYPE for each family.
	helpIdx := strings.Index(text, "# HELP requests ")
	typeIdx := strings.Index(text, "# TYPE requests ")
	if helpIdx < 0 || typeIdx < 0 || helpIdx > typeIdx {
		t.Errorf("HELP/TYPE ordering wrong:\n%s", text)
	}
}

// TestOMLabelEscapingRoundTrip renders hostile label values through the OM
// renderer and reads them back through the strict parser.
func TestOMLabelEscapingRoundTrip(t *testing.T) {
	hostile := `quote " backslash \ newline
tab	end`
	e := NewExposition()
	e.Family("hostile_total", TypeCounter, `help with "quotes" and \ slashes
and a newline`)
	e.Int("hostile_total", 1, L("path", hostile))
	text := e.RenderOpenMetrics()
	p, err := ParseExposition(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	samples := p.Samples("hostile_total")
	if len(samples) != 1 {
		t.Fatalf("got %d samples", len(samples))
	}
	if got := samples[0].Label("path"); got != hostile {
		t.Errorf("label round-trip:\ngot  %q\nwant %q", got, hostile)
	}
}

// TestParseExpositionRejects feeds the strict parser malformed expositions
// that a lenient line-splitter would accept.
func TestParseExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"missing EOF", "# TYPE a gauge\na 1\n"},
		{"content after EOF", "# TYPE a gauge\na 1\n# EOF\na 2\n"},
		{"blank interior line", "# TYPE a gauge\n\na 1\n# EOF\n"},
		{"HELP after samples", "# TYPE a gauge\na 1\n# HELP a text\n# EOF\n"},
		{"duplicate TYPE", "# TYPE a gauge\n# TYPE a gauge\na 1\n# EOF\n"},
		{"duplicate HELP", "# HELP a x\n# HELP a y\n# TYPE a gauge\na 1\n# EOF\n"},
		{"non-contiguous family", "# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\na 2\n# EOF\n"},
		{"reopened metadata", "# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\n# TYPE a gauge\n# EOF\n"},
		{"bad escape", "# TYPE a gauge\na{l=\"x\\y\"} 1\n# EOF\n"},
		{"dangling escape", "# TYPE a gauge\na{l=\"x\\\n# EOF\n"},
		{"unquoted label value", "# TYPE a gauge\na{l=x} 1\n# EOF\n"},
		{"duplicate label", "# TYPE a gauge\na{l=\"x\",l=\"y\"} 1\n# EOF\n"},
		{"invalid metric name", "# TYPE a gauge\n9a 1\n# EOF\n"},
		{"missing value", "# TYPE a gauge\na{l=\"x\"}\n# EOF\n"},
		{"non-numeric value", "# TYPE a gauge\na one\n# EOF\n"},
		{"unknown type", "# TYPE a histogram\na 1\n# EOF\n"},
		{"unknown metadata", "# FOO a bar\na 1\n# EOF\n"},
	}
	for _, tc := range cases {
		if _, err := ParseExposition(tc.text); err == nil {
			t.Errorf("%s: accepted malformed exposition:\n%s", tc.name, tc.text)
		}
	}
}

// TestParseExpositionCounterSuffix checks the counter naming convention:
// inside a counter family "a", samples must be named a_total or a_created;
// a differently-named sample opens its own untyped family instead.
func TestParseExpositionCounterSuffix(t *testing.T) {
	p, err := ParseExposition("# TYPE a counter\na_total 5\na_created 1\n# EOF\n")
	if err != nil {
		t.Fatalf("valid counter family rejected: %v", err)
	}
	fam := p.Family("a")
	if fam == nil || len(fam.Samples) != 2 {
		t.Fatalf("counter family: %+v", p.Families)
	}
	// A bare "a" sample does not belong to counter family "a" — it opens a
	// second family also named "a", which the contiguity check rejects.
	if _, err := ParseExposition("# TYPE a counter\na_total 5\na 1\n# EOF\n"); err == nil {
		t.Error("bare sample inside counter family accepted")
	}
}

// TestCounterMonotonicity simulates two consecutive scrapes of a live
// exposition and checks every counter sample moved monotonically — the
// property the tfjs-profile live view's QPS-from-deltas math relies on.
func TestCounterMonotonicity(t *testing.T) {
	render := func(requests, errors int64) *Parsed {
		e := NewExposition()
		e.Family("requests_total", TypeCounter, "Requests served.")
		e.Family("queue_depth", TypeGauge, "Requests waiting.")
		e.Int("requests_total", requests, L("model", "m"), L("outcome", "ok"))
		e.Int("requests_total", errors, L("model", "m"), L("outcome", "error"))
		e.Float("queue_depth", float64(requests%7), L("model", "m"))
		p, err := ParseExposition(e.RenderOpenMetrics())
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return p
	}
	first := render(10, 1)
	second := render(42, 3)
	for _, fam := range first.Families {
		if fam.Type != TypeCounter {
			continue
		}
		for _, s := range fam.Samples {
			now, ok := second.Value(s.Name, s.Labels)
			if !ok {
				t.Errorf("counter %s%v disappeared between scrapes", s.Name, s.Labels)
				continue
			}
			if now < s.Value {
				t.Errorf("counter %s%v went backwards: %v -> %v", s.Name, s.Labels, s.Value, now)
			}
		}
	}
}

// TestUndeclaredSampleRendersAsGauge: a sample with no declared family
// opens an untyped gauge family, without HELP, where it is added.
func TestUndeclaredSampleRendersAsGauge(t *testing.T) {
	e := NewExposition()
	e.Family("a_total", TypeCounter, "A.")
	e.Int("b", 1)
	e.Int("a_total", 2)
	want := "# HELP a A.\n# TYPE a counter\na_total 2\n# TYPE b gauge\nb 1\n# EOF\n"
	if got := e.RenderOpenMetrics(); got != want {
		t.Errorf("RenderOpenMetrics:\n%q\nwant:\n%q", got, want)
	}
}

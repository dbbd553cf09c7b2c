package telemetry_test

import (
	"repro/internal/telemetry"
	"strings"
	"testing"
)

// allocate is a helper whose frame must appear as the resolved allocation
// site: it lives in this test file, outside the pruned engine packages.
func allocate(lt *telemetry.LifetimeTracker, id, bytes int64, scope string) {
	lt.OnAlloc(id, bytes, scope, "")
}

// TestLifetimeTrackerLeakAttribution is the tracker half of the leak-check
// acceptance: an allocated-and-never-disposed handle must be reported with
// a resolvable allocation site, and a disposed one must not appear.
func TestLifetimeTrackerLeakAttribution(t *testing.T) {
	lt := telemetry.NewLifetimeTracker(1)
	allocate(lt, 1, 100, "tidy")
	allocate(lt, 2, 40, "")
	lt.OnDispose(1)

	rep := lt.Report()
	if rep.LiveTensors != 1 || rep.LiveBytes != 40 {
		t.Fatalf("live = %d tensors / %d bytes, want 1 / 40", rep.LiveTensors, rep.LiveBytes)
	}
	if rep.Allocs != 2 || rep.Disposes != 1 {
		t.Fatalf("counts = %d allocs / %d disposes, want 2 / 1", rep.Allocs, rep.Disposes)
	}
	if len(rep.Sites) != 1 {
		t.Fatalf("sites = %d, want exactly 1: %+v", len(rep.Sites), rep.Sites)
	}
	site := rep.Sites[0]
	if !strings.Contains(site.Site, "lifetime_test.go") {
		t.Errorf("site %q does not resolve to this test file", site.Site)
	}
	if !strings.Contains(site.Site, "allocate") {
		t.Errorf("site %q does not name the allocating function", site.Site)
	}
	if site.Tensors != 1 || site.Bytes != 40 {
		t.Errorf("site aggregates %d tensors / %d bytes, want 1 / 40", site.Tensors, site.Bytes)
	}
	// The disposed tensor's scope ("tidy") must not survive into the report.
	for _, s := range rep.Scopes {
		if strings.HasPrefix(s.Scope, "tidy") {
			t.Errorf("disposed tensor's scope leaked into the report: %+v", s)
		}
	}
	if len(rep.Scopes) != 1 || rep.Scopes[0].Scope != "(no scope)" {
		t.Errorf("scopes = %+v, want exactly [(no scope)]", rep.Scopes)
	}
}

// TestLifetimeTrackerFinalized verifies the GC-reclaim path: OnFinalize
// moves a still-live record into the finalized set, and the subsequent
// OnDispose (the finalizer disposes after reporting) clears it from live.
func TestLifetimeTrackerFinalized(t *testing.T) {
	lt := telemetry.NewLifetimeTracker(1)
	allocate(lt, 7, 64, "")
	lt.OnFinalize(7)
	lt.OnDispose(7)

	rep := lt.Report()
	if rep.LiveTensors != 0 {
		t.Fatalf("live = %d, want 0 after finalize+dispose", rep.LiveTensors)
	}
	if rep.Finalized != 1 {
		t.Fatalf("finalized = %d, want 1", rep.Finalized)
	}
	if len(rep.FinalizedSites) != 1 || !strings.Contains(rep.FinalizedSites[0].Site, "lifetime_test.go") {
		t.Fatalf("finalized sites = %+v, want one resolving to this file", rep.FinalizedSites)
	}
}

// TestLifetimeTrackerSampling checks that sampleEvery > 1 leaves the
// un-sampled allocations site-less but still counted.
func TestLifetimeTrackerSampling(t *testing.T) {
	lt := telemetry.NewLifetimeTracker(2)
	for i := int64(1); i <= 4; i++ {
		allocate(lt, i, 10, "")
	}
	rep := lt.Report()
	if rep.LiveTensors != 4 {
		t.Fatalf("live = %d, want 4", rep.LiveTensors)
	}
	var sampled, unsampled int
	for _, s := range rep.Sites {
		if s.Site == "(unsampled)" {
			unsampled += s.Tensors
		} else {
			sampled += s.Tensors
		}
	}
	if sampled != 2 || unsampled != 2 {
		t.Fatalf("sampled/unsampled = %d/%d, want 2/2 at sampleEvery=2: %+v", sampled, unsampled, rep.Sites)
	}
}

// TestLeakReportString smoke-tests the human rendering fmt.Print gives a
// tf.LeakCheck report.
func TestLeakReportString(t *testing.T) {
	lt := telemetry.NewLifetimeTracker(1)
	allocate(lt, 1, 2048, "predict")
	rep := lt.Report()
	rep.Device = &telemetry.DeviceMemory{Backend: "webgl", NumTextures: 3, TextureBytes: 1 << 20}
	out := rep.String()
	for _, want := range []string{"1 live tensor(s)", "lifetime_test.go", "predict", "webgl"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}

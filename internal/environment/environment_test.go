package environment

import (
	"math"
	"testing"
)

func TestDeviceCensusMatchesPaperRates(t *testing.T) {
	devices := SyntheticCensus(200000, 1)
	for _, r := range Report(devices) {
		if r.Total == 0 {
			t.Fatalf("class %v has no devices", r.Class)
		}
		// Within 1.5 percentage points of the paper's reported share.
		if math.Abs(r.SupportRate-r.PaperRate) > 0.015 {
			t.Errorf("%v support %.3f, paper %.3f", r.Class, r.SupportRate, r.PaperRate)
		}
	}
}

func TestCensusDeterministicPerSeed(t *testing.T) {
	a := SyntheticCensus(1000, 7)
	b := SyntheticCensus(1000, 7)
	if len(a) != len(b) {
		t.Fatal("census size differs between runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("census not deterministic for a fixed seed")
		}
	}
}

func TestCanRunTFJSRequiresOESTextureFloat(t *testing.T) {
	d := Device{Class: Desktop, HasGPU: true, WebGLVersion: 2, OESTextureFloat: false}
	if d.CanRunTFJS() {
		t.Fatal("WebGL without OES_texture_float must not run TFJS")
	}
	d.OESTextureFloat = true
	if !d.CanRunTFJS() {
		t.Fatal("WebGL 2 + OES_texture_float must run TFJS")
	}
	d.HasGPU = false
	if d.CanRunTFJS() {
		t.Fatal("no GPU must not run TFJS")
	}
}

func TestAdjustEpsilon(t *testing.T) {
	full := Device{HasGPU: true, WebGLVersion: 2, OESTextureFloat: true}
	if AdjustEpsilon(full) != 1e-7 {
		t.Fatalf("fp32 epsilon = %g", AdjustEpsilon(full))
	}
	half := full
	half.HalfFloatOnly = true
	if AdjustEpsilon(half) != 1e-4 {
		t.Fatalf("fp16 epsilon = %g", AdjustEpsilon(half))
	}
}

func TestDeviceClassString(t *testing.T) {
	for class, want := range map[DeviceClass]string{
		Desktop: "desktop", IOSMobile: "iOS", WindowsMobile: "Windows mobile", AndroidMobile: "Android",
	} {
		if class.String() != want {
			t.Errorf("%d.String() = %q, want %q", class, class.String(), want)
		}
	}
}

func TestSupportRate(t *testing.T) {
	devices := []Device{
		{Class: Desktop, HasGPU: true, WebGLVersion: 2, OESTextureFloat: true},
		{Class: Desktop, HasGPU: false},
		{Class: AndroidMobile, HasGPU: true, WebGLVersion: 1, OESTextureFloat: true},
	}
	if got := SupportRate(devices, Desktop); got != 0.5 {
		t.Fatalf("desktop rate = %g", got)
	}
	if got := SupportRate(devices, AndroidMobile); got != 1 {
		t.Fatalf("android rate = %g", got)
	}
	if got := SupportRate(devices, IOSMobile); got != 0 {
		t.Fatalf("ios rate = %g (no devices)", got)
	}
}

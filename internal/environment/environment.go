// Package environment models the execution-environment detection layer of
// the library: the device capabilities the WebGL backend needs (Section
// 4.1.3) and a synthetic device census standing in for WebGLStats.com, the
// source the paper cites for its device-support numbers ("TensorFlow.js can
// run on 99% of desktop devices, 98% of iOS and Windows mobile devices, and
// 52% of Android devices").
package environment

import (
	"fmt"
	"math/rand"
)

// ---------------------------------------------------------------------------
// Device census (§4.1.3)

// DeviceClass buckets devices the way WebGLStats reports them.
type DeviceClass int

const (
	// Desktop covers desktop and laptop browsers.
	Desktop DeviceClass = iota
	// IOSMobile covers iPhones and iPads.
	IOSMobile
	// WindowsMobile covers Windows mobile devices.
	WindowsMobile
	// AndroidMobile covers Android phones and tablets.
	AndroidMobile
)

// String implements fmt.Stringer.
func (c DeviceClass) String() string {
	switch c {
	case Desktop:
		return "desktop"
	case IOSMobile:
		return "iOS"
	case WindowsMobile:
		return "Windows mobile"
	case AndroidMobile:
		return "Android"
	default:
		return fmt.Sprintf("DeviceClass(%d)", int(c))
	}
}

// Device is one entry of the synthetic census.
type Device struct {
	Class DeviceClass
	// HasGPU reports whether the device has GPU hardware at all; the
	// paper attributes the Android gap to "a large number of older
	// Android devices that have no GPU hardware".
	HasGPU bool
	// WebGLVersion is 0 (none), 1 or 2.
	WebGLVersion int
	// OESTextureFloat is the extension TensorFlow.js requires: it
	// "enables uploading and reading from floating point textures".
	OESTextureFloat bool
	// HalfFloatOnly marks devices whose float textures are 16-bit (iOS).
	HalfFloatOnly bool
}

// CanRunTFJS reports whether the WebGL backend can run on the device: a
// WebGL 1.0 context with OES_texture_float (Section 4.1.3).
func (d Device) CanRunTFJS() bool {
	return d.HasGPU && d.WebGLVersion >= 1 && d.OESTextureFloat
}

// censusProfile holds the per-class capability marginals used to generate
// the synthetic population. The rates are chosen so the population
// reproduces the WebGLStats shares the paper reports.
type censusProfile struct {
	class     DeviceClass
	share     float64 // fraction of the population
	hasGPU    float64
	webgl2    float64 // of devices with GPU
	oesFloat  float64 // of devices with WebGL
	halfFloat float64 // of devices with OES float support
}

var defaultProfiles = []censusProfile{
	{class: Desktop, share: 0.45, hasGPU: 0.998, webgl2: 0.80, oesFloat: 0.992, halfFloat: 0.01},
	{class: IOSMobile, share: 0.15, hasGPU: 1.0, webgl2: 0.05, oesFloat: 0.98, halfFloat: 0.95},
	{class: WindowsMobile, share: 0.05, hasGPU: 0.995, webgl2: 0.55, oesFloat: 0.985, halfFloat: 0.10},
	{class: AndroidMobile, share: 0.35, hasGPU: 0.58, webgl2: 0.45, oesFloat: 0.90, halfFloat: 0.40},
}

// SyntheticCensus generates a deterministic population of n devices whose
// class-conditional support rates match the paper's reported numbers.
func SyntheticCensus(n int, seed int64) []Device {
	rng := rand.New(rand.NewSource(seed))
	devices := make([]Device, 0, n)
	for _, p := range defaultProfiles {
		count := int(float64(n) * p.share)
		for i := 0; i < count; i++ {
			d := Device{Class: p.class}
			d.HasGPU = rng.Float64() < p.hasGPU
			if d.HasGPU {
				d.WebGLVersion = 1
				if rng.Float64() < p.webgl2 {
					d.WebGLVersion = 2
				}
				d.OESTextureFloat = rng.Float64() < p.oesFloat
				if d.OESTextureFloat {
					d.HalfFloatOnly = rng.Float64() < p.halfFloat
				}
			}
			devices = append(devices, d)
		}
	}
	return devices
}

// SupportRate returns the fraction of devices of the given class that can
// run the WebGL backend.
func SupportRate(devices []Device, class DeviceClass) float64 {
	total, supported := 0, 0
	for _, d := range devices {
		if d.Class != class {
			continue
		}
		total++
		if d.CanRunTFJS() {
			supported++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(supported) / float64(total)
}

// CensusReport summarizes support rates per device class.
type CensusReport struct {
	Class       DeviceClass
	Total       int
	Supported   int
	SupportRate float64
	// PaperRate is the share the paper reports for this class.
	PaperRate float64
}

// PaperRates are the WebGLStats-derived shares from Section 4.1.3 of the
// paper. Windows mobile is grouped with iOS there ("98% of iOS and Windows
// mobile devices").
var PaperRates = map[DeviceClass]float64{
	Desktop:       0.99,
	IOSMobile:     0.98,
	WindowsMobile: 0.98,
	AndroidMobile: 0.52,
}

// Report builds the per-class census summary.
func Report(devices []Device) []CensusReport {
	var out []CensusReport
	for _, class := range []DeviceClass{Desktop, IOSMobile, WindowsMobile, AndroidMobile} {
		total, supported := 0, 0
		for _, d := range devices {
			if d.Class != class {
				continue
			}
			total++
			if d.CanRunTFJS() {
				supported++
			}
		}
		rate := 0.0
		if total > 0 {
			rate = float64(supported) / float64(total)
		}
		out = append(out, CensusReport{
			Class: class, Total: total, Supported: supported,
			SupportRate: rate, PaperRate: PaperRates[class],
		})
	}
	return out
}

// AdjustEpsilon returns the numeric epsilon appropriate for a device: the
// default 1e-7 for 32-bit float devices, 1e-4 for 16-bit devices, fixing
// the log(x+ε) underflow described in Section 4.1.3.
func AdjustEpsilon(d Device) float64 {
	if d.HalfFloatOnly {
		return 1e-4
	}
	return 1e-7
}

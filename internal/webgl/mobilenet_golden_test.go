package webgl

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/data"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/vec"
)

const mobilenetGoldenFile = "testdata/mobilenet_golden.json"

// mobilenetConfigs are the four device configurations the end-to-end
// golden covers; each runs with an odd worker count so chunk boundaries
// fall inside rows.
func mobilenetConfigs() map[string]Config {
	cfgs := map[string]Config{}
	for _, name := range []string{"default", "unpacked", "nosqueeze", "halffloat"} {
		cfg := DefaultConfig()
		cfg.Device.Workers = 3
		cfg.Device.TextureAllocCost = -1
		switch name {
		case "unpacked":
			cfg.Packed = false
		case "nosqueeze":
			cfg.SqueezeLogicalShapes = false
		case "halffloat":
			cfg.Device.HalfFloatOnly = true
		}
		cfgs[name] = cfg
	}
	return cfgs
}

// TestMobileNetLogitsGolden runs the Table 1 network (MobileNet v1 α=0.25
// @96, eager Layers model: Conv → BatchNorm → ReLU6 as three programs per
// block) on two images and four device configurations and compares the
// output bits with those recorded at the commit before programs ran over
// texel ranges.
func TestMobileNetLogitsGolden(t *testing.T) {
	e := core.Global()
	e.RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
	golden := loadGoldens(t, mobilenetGoldenFile)
	recorded := map[string]string{}
	for name, cfg := range mobilenetConfigs() {
		cfg := cfg
		backend := "golden-" + name
		e.RegisterBackend(backend, func() (kernels.Backend, error) { return New(cfg), nil })
		if err := e.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		model, err := models.MobileNetV1(models.MobileNetConfig{
			Alpha: 0.25, InputSize: 96, NumClasses: 1000, IncludeTop: true, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{42, 7} {
			x := data.FromPixelsBatch(data.SyntheticPhoto(96, seed))
			out := model.Predict(x)
			h := fnv.New64a()
			hashFloats(h, out.DataSync())
			out.Dispose()
			x.Dispose()
			key := fmt.Sprintf("%s/photo%d", name, seed)
			recorded[key] = fmt.Sprintf("%016x", h.Sum64())
			if !*updateGoldens && goldensApply() && recorded[key] != golden[key] {
				t.Errorf("%s: logits digest %s, golden %q", key, recorded[key], golden[key])
			}
		}
		model.Dispose()
		if err := e.SetBackend("cpu"); err != nil {
			t.Fatal(err)
		}
	}
	if recorded["default/photo42"] != recorded["unpacked/photo42"] || recorded["default/photo42"] != recorded["nosqueeze/photo42"] {
		t.Errorf("logits differ between layouts of one precision: %v", recorded)
	}
	if *updateGoldens {
		saveGoldens(t, mobilenetGoldenFile, recorded)
	}
}

// TestVectorScalarBitIdentity is the whole-model form of the vector cores'
// contract (internal/vec) on this backend: the Table 1 network's logits on
// the AVX2 bodies are, bit for bit, its logits on the pure-Go bodies — at
// 1, 3 and 7 device workers (ranges ending mid-pixel take the programs'
// own Go loops beside the cores), packed and unpacked.
func TestVectorScalarBitIdentity(t *testing.T) {
	if restore, forced := vec.ForceScalar(); !forced {
		t.Skip("no AVX2 on this CPU: the Go bodies are the only ones that run")
	} else {
		restore()
	}
	e := core.Global()
	e.RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
	x := data.FromPixelsBatch(data.SyntheticPhoto(96, 42))
	defer x.Dispose()
	for _, packed := range []bool{true, false} {
		for _, workers := range []int{1, 3, 7} {
			cfg := DefaultConfig()
			cfg.Packed, cfg.Device.Workers, cfg.Device.TextureAllocCost = packed, workers, -1
			backend := fmt.Sprintf("cores-packed=%v-workers=%d", packed, workers)
			e.RegisterBackend(backend, func() (kernels.Backend, error) { return New(cfg), nil })
			if err := e.SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			model, err := models.MobileNetV1(models.MobileNetConfig{
				Alpha: 0.25, InputSize: 96, NumClasses: 1000, IncludeTop: true, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			// DataSync returns once the device is idle, so the switch is
			// flipped between programs, never under one.
			logits := func() []float32 {
				out := model.Predict(x)
				defer out.Dispose()
				return slices.Clone(out.DataSync())
			}
			vector := logits()
			restore, _ := vec.ForceScalar()
			scalar := logits()
			restore()
			for i := range scalar {
				if math.Float32bits(vector[i]) != math.Float32bits(scalar[i]) {
					t.Fatalf("%s: logit %d is %g (bits %08x) on the AVX2 bodies, %g (bits %08x) on the Go bodies",
						backend, i, vector[i], math.Float32bits(vector[i]), scalar[i], math.Float32bits(scalar[i]))
				}
			}
			model.Dispose()
			if err := e.SetBackend("cpu"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

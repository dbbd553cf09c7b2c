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
	"repro/internal/native"
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

// halfFloatLogitsBound is the largest relative difference, per value,
// between the Table 1 network's logits on half-float textures and on node:
// fp16 storage rounds every activation to 11 bits. The two images read
// 1.28e-3 and 1.33e-3 on amd64; the bound is over twice that, a margin for
// a change that moves the fp16 rounding of one layer.
const halfFloatLogitsBound = 3e-3

// TestMobileNetLogitsGolden runs the Table 1 network (MobileNet v1 α=0.25
// @96, eager Layers model: Conv → BatchNorm → ReLU6 as three programs per
// block) on two images and four device configurations and compares the
// output bits with the recorded goldens (testdata/mobilenet_golden.json).
// The fp32 configurations are Float32bits-equal to node's logits, and
// half-float is within halfFloatLogitsBound of them.
func TestMobileNetLogitsGolden(t *testing.T) {
	e := core.Global()
	e.RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
	nb := native.New()
	t.Cleanup(nb.Close)
	e.RegisterBackend("golden-node", func() (kernels.Backend, error) { return nb, nil })
	golden := loadGoldens(t, mobilenetGoldenFile)
	recorded := map[string]string{}
	logits := map[string][]float32{}
	configs := mobilenetConfigs()
	for _, name := range []string{"default", "unpacked", "nosqueeze", "halffloat", "node"} {
		backend := "golden-" + name
		if cfg, ok := configs[name]; ok {
			e.RegisterBackend(backend, func() (kernels.Backend, error) { return New(cfg), nil })
		}
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
			key := fmt.Sprintf("%s/photo%d", name, seed)
			logits[key] = out.DataSync()
			out.Dispose()
			x.Dispose()
			if name == "node" {
				continue
			}
			h := fnv.New64a()
			hashFloats(h, logits[key])
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
	for _, seed := range []int64{42, 7} {
		node := logits[fmt.Sprintf("node/photo%d", seed)]
		for _, name := range []string{"default", "unpacked", "nosqueeze"} {
			key := fmt.Sprintf("%s/photo%d", name, seed)
			if len(logits[key]) != len(node) {
				t.Fatalf("%s: %d logits, node has %d", key, len(logits[key]), len(node))
			}
			differ := 0
			for i, v := range logits[key] {
				if math.Float32bits(v) != math.Float32bits(node[i]) {
					differ++
				}
			}
			if differ > 0 {
				t.Errorf("%s: %d of %d logits differ from node's bits", key, differ, len(node))
			}
		}
		key := fmt.Sprintf("halffloat/photo%d", seed)
		worst := 0.0
		for i, v := range logits[key] {
			worst = max(worst, math.Abs(float64(v)-float64(node[i]))/math.Abs(float64(node[i])))
		}
		t.Logf("%s: largest relative difference from node %.3g", key, worst)
		if !(worst <= halfFloatLogitsBound) {
			t.Errorf("%s: a logit %.3g away from node's, relative; bound %g", key, worst, halfFloatLogitsBound)
		}
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

package main

import (
	"math/rand"
	"strconv"

	"repro/internal/data"
)

// Input geometry: MobileNet v1 α=0.25 at 96×96×3 (the Table 1 workload at
// the size the plain-CPU reference stays tractable), and the examples/mnist
// convnet's 16×16×1 digits.
const (
	imageSide   = 96
	imageElems  = imageSide * imageSide * 3
	poolSize    = 8
	numClasses  = 1000
	digitCount  = 128
	digitBatch  = 32
	digitNoise  = 0.15
	kernelBatch = 16
)

// inputs is everything -seed decides. The program under test only ever sees
// these generated values (and the shuffle order derived from them), never
// the seed itself.
type inputs struct {
	seed int64
	// images is the pool of request payloads, cycled so consecutive
	// requests carry different bodies.
	images [poolSize][]float32
	// bodies are the images as KServe-V1 predict request JSON.
	bodies [poolSize][]byte
}

func newInputs(seed int64) *inputs {
	in := &inputs{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	for i := range in.images {
		img := make([]float32, imageElems)
		for j := range img {
			img[j] = rng.Float32()
		}
		in.images[i] = img
		in.bodies[i] = encodePredictBody(img)
	}
	return in
}

// encodePredictBody renders one 96×96×3 instance as
// {"instances":[[[[r,g,b],...],...]]} with float32 round-trip digits, the
// ~310 KB body a client POSTs.
func encodePredictBody(img []float32) []byte {
	buf := make([]byte, 0, 12*len(img))
	buf = append(buf, `{"instances":[[`...)
	for y := 0; y < imageSide; y++ {
		if y > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for x := 0; x < imageSide; x++ {
			if x > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for c := 0; c < 3; c++ {
				if c > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendFloat(buf, float64(img[(y*imageSide+x)*3+c]), 'g', -1, 32)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, ']')
	}
	return append(buf, `]]}`...)
}

// dense generates n values in [0,1) for kernel operands, so they differ
// between seeds like real activations do.
func (in *inputs) dense(n int) []float32 {
	rng := rand.New(rand.NewSource(in.seed + 2))
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()
	}
	return v
}

// digits generates the training set and a held-out set. internal/data is
// the repo's input generator, not a measured layer.
func (in *inputs) digits() (train, heldOut *data.Digits) {
	return data.SyntheticDigits(digitCount, digitNoise, in.seed),
		data.SyntheticDigits(digitCount, digitNoise, in.seed+1)
}

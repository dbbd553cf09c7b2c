package main

import (
	"fmt"
	"math"

	"repro/tf"
)

// Output tolerances. Served and direct node outputs must sit within
// servedTolerance of the cpu reference tier; the webgl backend computes in
// texture float precision and gets the graphmodel parity suite's bound.
const (
	servedTolerance = 1e-4
	webglTolerance  = 1e-5
	sumTolerance    = 1e-3
)

// references holds the cpu reference tier's output for each pool image.
type references [poolSize][]float32

// computeReferences runs the pool through the Layers-API MobileNet on the
// plain cpu backend — the parity oracle every other tier is judged by.
func computeReferences(in *inputs) (*references, error) {
	if err := tf.SetBackend("cpu"); err != nil {
		return nil, err
	}
	model, err := tf.MobileNetV1(mobileNetConfig)
	if err != nil {
		return nil, fmt.Errorf("building reference mobilenet: %w", err)
	}
	defer model.Dispose()
	var refs references
	for i, img := range in.images {
		x := tf.TensorOf(img, 1, imageSide, imageSide, 3)
		out := model.Predict(x)
		refs[i] = out.DataSync()
		out.Dispose()
		x.Dispose()
		if err := checkDistribution(refs[i]); err != nil {
			return nil, fmt.Errorf("reference output %d: %w", i, err)
		}
	}
	return &refs, nil
}

// checkDistribution requires numClasses finite probabilities summing to 1.
func checkDistribution(probs []float32) error {
	if len(probs) != numClasses {
		return fmt.Errorf("got %d probabilities, want %d", len(probs), numClasses)
	}
	var sum float64
	for i, p := range probs {
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) || p < 0 {
			return fmt.Errorf("probability %d is %v", i, p)
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > sumTolerance {
		return fmt.Errorf("probabilities sum to %v", sum)
	}
	return nil
}

// check requires probs to be a distribution within tol of the reference
// output for pool image i.
func (r *references) check(i int, probs []float32, tol float64) error {
	if err := checkDistribution(probs); err != nil {
		return err
	}
	for j, p := range probs {
		if d := math.Abs(float64(p - r[i][j])); d > tol {
			return fmt.Errorf("class %d of image %d is %v, reference %v (off by %.3g > %g)", j, i, p, r[i][j], d, tol)
		}
	}
	return nil
}

// checkLoss requires a finite training loss.
func checkLoss(loss float64) error {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("training loss is %v", loss)
	}
	return nil
}

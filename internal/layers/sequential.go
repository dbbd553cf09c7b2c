package layers

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Sequential is a linear stack of layers — tf.sequential() from Listing 1.
type Sequential struct {
	name   string
	layers []Layer

	inputShape []int // per-example shape, set by the first layer's config
	built      bool

	optimizer     train.Optimizer
	ownsOptimizer bool // Compile built it from a name
	loss          train.Loss
	lossName      string
	metrics       []train.Metric
}

// NewSequential creates an empty model.
func NewSequential(name string) *Sequential {
	if name == "" {
		name = autoName("sequential")
	}
	return &Sequential{name: name}
}

// Name returns the model name.
func (m *Sequential) Name() string { return m.name }

// Layers returns the model's layers in order.
func (m *Sequential) Layers() []Layer { return m.layers }

// Add appends a layer (model.add in Listing 1). The first layer must carry
// an input shape in its configuration.
func (m *Sequential) Add(l Layer) *Sequential {
	m.layers = append(m.layers, l)
	m.built = false
	return m
}

// SetInputShape sets the per-example input shape explicitly, an alternative
// to specifying InputShape on the first layer.
func (m *Sequential) SetInputShape(shape []int) { m.inputShape = tensor.CopyShape(shape) }

// InputShape returns the per-example input shape (without the batch
// dimension), building the model first if needed. Exporters use it to stamp
// the serving Placeholder with a static shape so load-time graph
// verification can propagate real dimensions.
func (m *Sequential) InputShape() ([]int, error) {
	if err := m.Build(); err != nil {
		return nil, err
	}
	return tensor.CopyShape(m.inputShape), nil
}

// inputShapeFromLayers extracts InputShape from the first layer's config.
func (m *Sequential) inputShapeFromLayers() []int {
	if len(m.layers) == 0 {
		return nil
	}
	if s := cfgInts(m.layers[0].Config(), "input_shape", nil); len(s) > 0 {
		return s
	}
	return nil
}

// Build creates weights for every layer by propagating shapes from the
// input shape.
func (m *Sequential) Build() error {
	if m.built {
		return nil
	}
	shape := m.inputShape
	if shape == nil {
		shape = m.inputShapeFromLayers()
	}
	if shape == nil {
		return fmt.Errorf("layers: model %q has no input shape; set InputShape on the first layer", m.name)
	}
	m.inputShape = shape
	for _, l := range m.layers {
		if err := l.Build(shape); err != nil {
			return err
		}
		next, err := l.OutputShape(shape)
		if err != nil {
			return err
		}
		shape = next
	}
	m.built = true
	return nil
}

// OutputShape returns the per-example output shape.
func (m *Sequential) OutputShape() ([]int, error) {
	if err := m.Build(); err != nil {
		return nil, err
	}
	shape := m.inputShape
	for _, l := range m.layers {
		next, err := l.OutputShape(shape)
		if err != nil {
			return nil, err
		}
		shape = next
	}
	return shape, nil
}

// Weights returns all variables of the model.
func (m *Sequential) Weights() []*core.Variable {
	var out []*core.Variable
	for _, l := range m.layers {
		out = append(out, l.Weights()...)
	}
	return out
}

// TrainableWeights returns the trainable variables.
func (m *Sequential) TrainableWeights() []*core.Variable {
	var out []*core.Variable
	for _, v := range m.Weights() {
		if v.Trainable {
			out = append(out, v)
		}
	}
	return out
}

// CountParams returns the total number of weight elements, building the
// model if needed.
func (m *Sequential) CountParams() int {
	if err := m.Build(); err != nil {
		// An unbuildable model has no weights to count.
		return 0
	}
	n := 0
	for _, v := range m.Weights() {
		n += tensor.ShapeSize(v.Shape())
	}
	return n
}

// apply runs the forward pass. Caller manages tensor lifetime (typically
// inside a tidy scope).
func (m *Sequential) apply(x *tensor.Tensor, training bool) *tensor.Tensor {
	y := x
	for _, l := range m.layers {
		y = l.Call(y, training)
	}
	return y
}

// Predict runs inference on a batch. All intermediates are tidied; the
// caller owns the returned tensor (Section 3.7: model-level APIs manage
// memory internally).
func (m *Sequential) Predict(x *tensor.Tensor) *tensor.Tensor {
	if err := m.Build(); err != nil {
		panic(&core.OpError{Kernel: "Predict", Err: err})
	}
	e := core.Global()
	outs := e.Tidy("predict", func() []*tensor.Tensor {
		return []*tensor.Tensor{m.apply(x, false)}
	})
	return outs[0]
}

// CompileConfig mirrors model.compile()'s argument (Listing 1).
type CompileConfig struct {
	// Optimizer is a name ("sgd", "adam", ...) or a train.Optimizer.
	Optimizer any
	// Loss is a name ("meanSquaredError", ...) or a train.Loss.
	Loss any
	// LearningRate applies when Optimizer is a name; 0 means 0.01.
	LearningRate float64
	// Metrics are metric names ("accuracy").
	Metrics []string
}

// Compile configures the model for training. An optimizer Compile built
// from a name is the model's: compiling again disposes it, slots and all.
// A train.Optimizer passed in stays the caller's.
func (m *Sequential) Compile(cfg CompileConfig) error {
	var opt train.Optimizer
	owned := false
	switch o := cfg.Optimizer.(type) {
	case string:
		built, err := train.NewOptimizer(o, cfg.LearningRate)
		if err != nil {
			return err
		}
		opt, owned = built, true
	case train.Optimizer:
		opt = o
	default:
		return fmt.Errorf("layers: compile needs an optimizer name or train.Optimizer, got %T", cfg.Optimizer)
	}
	var loss train.Loss
	lossName := "custom"
	switch l := cfg.Loss.(type) {
	case string:
		built, err := train.NewLoss(l)
		if err != nil {
			return err
		}
		loss, lossName = built, l
	case train.Loss:
		loss = l
	case func(yTrue, yPred *tensor.Tensor) *tensor.Tensor:
		loss = l
	default:
		return fmt.Errorf("layers: compile needs a loss name or train.Loss, got %T", cfg.Loss)
	}
	var metrics []train.Metric
	for _, name := range cfg.Metrics {
		metric, err := train.NewMetric(name)
		if err != nil {
			return err
		}
		metrics = append(metrics, metric)
	}
	if m.ownsOptimizer && m.optimizer != opt {
		m.optimizer.Dispose()
	}
	m.optimizer, m.ownsOptimizer = opt, owned
	m.loss, m.lossName, m.metrics = loss, lossName, metrics
	return nil
}

// FitConfig mirrors model.fit()'s options.
type FitConfig struct {
	// Epochs is the number of passes over the data; 0 means 1.
	Epochs int
	// BatchSize is the minibatch size; 0 means 32.
	BatchSize int
	// Shuffle reshuffles example order every epoch; defaults to true.
	Shuffle *bool
	// ValidationSplit holds out the final fraction of the data.
	ValidationSplit float64
	// Seed makes shuffling deterministic; 0 uses a fixed default.
	Seed int64
	// OnEpochEnd, when set, is called after each epoch with the epoch
	// index and logs (loss and metrics).
	OnEpochEnd func(epoch int, logs map[string]float64)
}

// History records per-epoch training logs, like the History object resolved
// by model.fit() in Listing 1.
type History struct {
	Epochs int
	// Logs maps metric name ("loss", "acc", "val_loss", ...) to one value
	// per epoch. Training metrics ("acc"), like "loss", are the mean over
	// the epoch's batches of the value on that batch's training forward
	// pass: weights as they were before the batch's update, dropout on.
	// "val_*" entries come from a separate inference pass.
	Logs map[string][]float64
}

// Fit trains the model (model.fit in Listing 1). x and y are full-dataset
// tensors whose first dimension indexes examples. Each step runs one
// forward pass: loss and metrics are both taken from it (see History.Logs).
func (m *Sequential) Fit(x, y *tensor.Tensor, cfg FitConfig) (*History, error) {
	if m.optimizer == nil || m.loss == nil {
		return nil, fmt.Errorf("layers: model %q must be compiled before fit", m.name)
	}
	if err := m.Build(); err != nil {
		return nil, err
	}
	if x.Rank() < 1 || y.Rank() < 1 || x.Shape[0] != y.Shape[0] {
		return nil, fmt.Errorf("layers: fit needs matching example counts, got x %v y %v", x.Shape, y.Shape)
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = 32
	}
	shuffle := cfg.Shuffle == nil || *cfg.Shuffle
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	numExamples := x.Shape[0]
	numVal := int(float64(numExamples) * cfg.ValidationSplit)
	numTrain := numExamples - numVal
	if numTrain <= 0 {
		return nil, fmt.Errorf("layers: validation split %g leaves no training data", cfg.ValidationSplit)
	}

	e := core.Global()
	vars := m.TrainableWeights()
	hist := &History{Epochs: epochs, Logs: map[string][]float64{}}

	indices := make([]int, numTrain)
	for i := range indices {
		indices[i] = i
	}

	for epoch := 0; epoch < epochs; epoch++ {
		if shuffle {
			rng.Shuffle(len(indices), func(i, j int) { indices[i], indices[j] = indices[j], indices[i] })
		}
		var epochLoss float64
		metricSums := make([]float64, len(m.metrics))
		batches := 0
		for start := 0; start < numTrain; start += batchSize {
			end := start + batchSize
			if end > numTrain {
				end = numTrain
			}
			batchIdx := indices[start:end]
			lossVal, metricVals := m.trainBatch(e, x, y, batchIdx, vars)
			epochLoss += lossVal
			for i, v := range metricVals {
				metricSums[i] += v
			}
			batches++
		}
		logs := map[string]float64{"loss": epochLoss / float64(batches)}
		for i, metric := range m.metrics {
			logs[metric.Name] = metricSums[i] / float64(batches)
		}
		if numVal > 0 {
			valLogs := m.evaluateRange(e, x, y, numTrain, numExamples, batchSize)
			for k, v := range valLogs {
				logs["val_"+k] = v
			}
		}
		for k, v := range logs {
			hist.Logs[k] = append(hist.Logs[k], v)
		}
		if cfg.OnEpochEnd != nil {
			cfg.OnEpochEnd(epoch, logs)
		}
	}
	return hist, nil
}

// trainBatch runs one minimization step on the examples at batchIdx and
// returns the batch's loss and metrics; Fit and FitAsync both step
// through it.
func (m *Sequential) trainBatch(e *core.Engine, x, y *tensor.Tensor, batchIdx []int, vars []*core.Variable) (float64, []float64) {
	var lossVal float64
	metricVals := make([]float64, len(m.metrics))
	e.Tidy("trainBatch", func() []*tensor.Tensor {
		idxVals := make([]float32, len(batchIdx))
		for i, idx := range batchIdx {
			idxVals[i] = float32(idx)
		}
		idx := ops.FromValuesTyped(idxVals, []int{len(batchIdx)}, tensor.Int32)
		bx := ops.Gather(x, idx, 0)
		by := ops.Gather(y, idx, 0)
		// Metrics read the training forward pass's own predictions, inside
		// the closure (they are disposed with the tape when Minimize
		// returns), as TF.js's trainFunction does: one forward pass per
		// step. Nothing differentiates through them — the tape only walks
		// back from the loss.
		loss := train.Minimize(m.optimizer, func() *tensor.Tensor {
			preds := m.apply(bx, true)
			for i, metric := range m.metrics {
				metricVals[i] = float64(metric.Fn(by, preds).DataSync()[0])
			}
			return m.loss(by, preds)
		}, vars)
		lossVal = float64(loss.DataSync()[0])
		return nil
	})
	return lossVal, metricVals
}

// evaluateRange computes loss/metrics over examples [lo, hi).
func (m *Sequential) evaluateRange(e *core.Engine, x, y *tensor.Tensor, lo, hi, batchSize int) map[string]float64 {
	logs := map[string]float64{}
	batches := 0
	for start := lo; start < hi; start += batchSize {
		end := start + batchSize
		if end > hi {
			end = hi
		}
		e.Tidy("evaluate", func() []*tensor.Tensor {
			begin := make([]int, x.Rank())
			size := tensor.CopyShape(x.Shape)
			begin[0], size[0] = start, end-start
			bx := ops.Slice(x, begin, size)
			beginY := make([]int, y.Rank())
			sizeY := tensor.CopyShape(y.Shape)
			beginY[0], sizeY[0] = start, end-start
			by := ops.Slice(y, beginY, sizeY)
			preds := m.apply(bx, false)
			logs["loss"] += float64(m.loss(by, preds).DataSync()[0])
			for _, metric := range m.metrics {
				logs[metric.Name] += float64(metric.Fn(by, preds).DataSync()[0])
			}
			return nil
		})
		batches++
	}
	for k := range logs {
		logs[k] /= float64(batches)
	}
	return logs
}

// Evaluate computes loss and metrics over a dataset (model.evaluate()).
func (m *Sequential) Evaluate(x, y *tensor.Tensor, batchSize int) (map[string]float64, error) {
	if m.loss == nil {
		return nil, fmt.Errorf("layers: model %q must be compiled before evaluate", m.name)
	}
	if err := m.Build(); err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	return m.evaluateRange(core.Global(), x, y, 0, x.Shape[0], batchSize), nil
}

// Dispose releases model weights and optimizer slots.
func (m *Sequential) Dispose() {
	for _, v := range m.Weights() {
		v.Dispose()
	}
	if m.optimizer != nil {
		m.optimizer.Dispose()
	}
}

// ---------------------------------------------------------------------------
// Serialization (the Keras-format two-way door of Section 3.2)

// topologyJSON is the serialized model topology, mirroring the Keras model
// JSON structure.
type topologyJSON struct {
	ClassName string     `json:"class_name"`
	Config    configJSON `json:"config"`
	Version   string     `json:"keras_version"`
	Backend   string     `json:"backend"`
}

type configJSON struct {
	Name   string      `json:"name"`
	Layers []layerJSON `json:"layers"`
}

type layerJSON struct {
	ClassName string         `json:"class_name"`
	Config    map[string]any `json:"config"`
}

// ToJSON serializes the model topology (weights are saved separately, as in
// the tfjs format — see internal/converter).
func (m *Sequential) ToJSON() ([]byte, error) {
	top := topologyJSON{
		ClassName: "Sequential",
		Version:   "2.2.4-tfjs-go",
		Backend:   "tensorflow",
		Config:    configJSON{Name: m.name},
	}
	for _, l := range m.layers {
		top.Config.Layers = append(top.Config.Layers, layerJSON{ClassName: l.ClassName(), Config: l.Config()})
	}
	return json.MarshalIndent(top, "", "  ")
}

// FromJSON rebuilds an (unbuilt, weightless) model from a serialized
// topology.
func FromJSON(data []byte) (*Sequential, error) {
	var top topologyJSON
	if err := json.Unmarshal(data, &top); err != nil {
		return nil, fmt.Errorf("layers: parsing model JSON: %w", err)
	}
	if top.ClassName != "Sequential" {
		return nil, fmt.Errorf("layers: unsupported model class %q", top.ClassName)
	}
	m := NewSequential(top.Config.Name)
	for _, lj := range top.Config.Layers {
		l, err := FromConfig(lj.ClassName, lj.Config)
		if err != nil {
			return nil, err
		}
		m.Add(l)
	}
	return m, nil
}

// NamedWeights returns (name, values, shape) for every weight, used by the
// converter's weight manifest.
type NamedWeight struct {
	Name   string
	Shape  []int
	Values []float32
}

// GetWeights downloads all weight values.
func (m *Sequential) GetWeights() []NamedWeight {
	var out []NamedWeight
	for _, v := range m.Weights() {
		out = append(out, NamedWeight{
			Name:   v.Name,
			Shape:  tensor.CopyShape(v.Shape()),
			Values: v.Value().DataSync(),
		})
	}
	return out
}

// SetWeights assigns weight values by name. The model must be built.
func (m *Sequential) SetWeights(weights []NamedWeight) error {
	if err := m.Build(); err != nil {
		return err
	}
	byName := map[string]*core.Variable{}
	for _, v := range m.Weights() {
		byName[v.Name] = v
	}
	for _, w := range weights {
		v, ok := byName[w.Name]
		if !ok {
			return fmt.Errorf("layers: model has no weight %q", w.Name)
		}
		if !tensor.ShapesEqual(v.Shape(), w.Shape) {
			return fmt.Errorf("layers: weight %q shape %v does not match %v", w.Name, w.Shape, v.Shape())
		}
		t := ops.FromValues(w.Values, w.Shape...)
		v.Assign(t)
		t.Dispose()
	}
	return nil
}

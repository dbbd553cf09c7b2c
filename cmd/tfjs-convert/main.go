// Command tfjs-convert is the model converter CLI of Section 5.1 — the
// analogue of the tensorflowjs_converter Python script. It takes a source
// model, prunes operations unnecessary for serving, packs weights into
// 4 MB shards and optionally quantizes them, then writes the web-format
// artifacts (model.json + binary shards) into an output directory. The
// converted model can be loaded back with tf.LoadGraphModel and verified.
//
//	tfjs-convert -model mobilenet -alpha 0.25 -size 96 -quantize 1 -out ./artifacts
//	tfjs-convert -model convnet -out ./artifacts -verify
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/tf"
)

func main() {
	modelName := flag.String("model", "convnet", "source model: convnet or mobilenet")
	alpha := flag.Float64("alpha", 0.25, "mobilenet width multiplier")
	size := flag.Int("size", 96, "mobilenet input resolution")
	quantize := flag.Int("quantize", 0, "quantization bytes: 0 (none), 1 (uint8, 4x) or 2 (uint16, 2x)")
	out := flag.String("out", "./artifacts", "output directory")
	verify := flag.Bool("verify", true, "reload the converted model and compare predictions")
	flag.Parse()

	if err := tf.SetBackend("node"); err != nil {
		log.Fatal(err)
	}
	tf.SetLayerSeed(17)

	var source *tf.Sequential
	var inputShape []int
	switch *modelName {
	case "convnet":
		source = tf.NewSequential("convnet")
		source.Add(tf.NewConv2DLayer(tf.Conv2DConfig{
			Filters: 8, KernelSize: []int{3, 3}, Padding: "same", Activation: "relu",
			InputShape: []int{16, 16, 1},
		}))
		source.Add(tf.NewMaxPooling2D(tf.Pool2DConfig{}))
		source.Add(tf.NewFlatten())
		source.Add(tf.NewDense(tf.DenseConfig{Units: 10, Activation: "softmax"}))
		inputShape = []int{1, 16, 16, 1}
	case "mobilenet":
		m, err := tf.MobileNetV1(tf.MobileNetConfig{
			Alpha: *alpha, InputSize: *size, NumClasses: 1000, IncludeTop: true, Seed: 17,
		})
		if err != nil {
			log.Fatal(err)
		}
		source = m
		inputShape = []int{1, *size, *size, 3}
	default:
		log.Fatalf("unknown -model %q (want convnet or mobilenet)", *modelName)
	}

	fmt.Printf("exporting %q (%d parameters) as a SavedModel graph with training ops...\n",
		source.Name(), source.CountParams())
	graph, err := tf.ExportSavedModel(source, true)
	if err != nil {
		log.Fatal(err)
	}

	store := tf.NewFSStore(*out)
	res, err := tf.Convert(graph, store, tf.ConvertOptions{QuantizationBytes: *quantize})
	if err != nil {
		// A graph the plan cannot run dies here with a node diagnostic — at
		// conversion time, not at the client's first predict.
		log.Fatal(err)
	}
	fmt.Printf("graph verify: OK — %d nodes checked by their kernels before writing\n", res.NodesAfter)
	fmt.Printf("pruned %d -> %d nodes (dropped %d training-only/unreachable nodes)\n",
		res.NodesBefore, res.NodesAfter, len(res.PrunedNodes))
	fmt.Printf("weights: %.2f MiB across %d shard(s) (quantization: %d bytes)\n",
		float64(res.WeightBytes)/(1<<20), res.NumShards, *quantize)
	fmt.Printf("artifacts written to %s\n", *out)

	if *verify {
		gm, err := tf.LoadGraphModel(store)
		if err != nil {
			log.Fatal(err)
		}
		x := tf.RandNormal(inputShape, 0, 1, nil)
		defer x.Dispose()
		want := source.Predict(x)
		defer want.Dispose()
		got, err := gm.Predict(x)
		if err != nil {
			log.Fatal(err)
		}
		defer got.Dispose()
		wantCls := tf.ArgMax(want, 1)
		gotCls := tf.ArgMax(got, 1)
		defer wantCls.Dispose()
		defer gotCls.Dispose()
		if wantCls.DataSync()[0] == gotCls.DataSync()[0] {
			fmt.Printf("verify: OK — converted model agrees with the source (class %.0f)\n", wantCls.DataSync()[0])
		} else {
			log.Fatalf("verify: FAILED — source class %.0f, converted class %.0f",
				wantCls.DataSync()[0], gotCls.DataSync()[0])
		}
	}
}

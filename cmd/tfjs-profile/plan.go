package main

import (
	"fmt"
	"log"

	"repro/internal/converter"
	"repro/internal/planvet"
	"repro/tf"
)

// planReport is the -plan-report mode: it converts a MobileNet, loads it
// (which runs the planvet dataflow verifier on the compiled
// plan), and prints the per-root lifetime table — the memory schedule
// the executor will actually follow: when each container is produced,
// when it is last read, and the dispose point that returns it to the
// recycler. The same table is what `tfjs-vet -plan` gates CI on; here it
// rides next to the kernel profile so a perf investigation can see the
// residency the plan implies.
func planReport(alpha float64, size int, optimize bool) {
	store := converter.NewMemStore()
	model, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: alpha, InputSize: size, NumClasses: 1000, IncludeTop: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	g, err := tf.ExportSavedModel(model, false)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tf.Convert(g, store, tf.ConvertOptions{}); err != nil {
		log.Fatal(err)
	}
	model.Dispose()

	m, err := tf.LoadGraphModel(store, tf.WithOptimize(optimize))
	if err != nil {
		log.Fatal(err)
	}
	defer m.Dispose()
	ir := m.PlanIR()
	ir.Model = fmt.Sprintf("mobilenet-%g-%d", alpha, size)
	if err := planvet.Verify(ir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled plan for %s (optimize=%v): verified clean\n\n", ir.Model, optimize)
	fmt.Println(planvet.FormatTable(ir))
}

package graphmodel

import "repro/internal/tensor"

// StepShapes returns the output shape each step of m's plan produced in
// its last Execute, by node name.
func StepShapes(m *Model) map[string][]int {
	shapes := make(map[string][]int, len(m.plan.steps))
	for _, st := range m.plan.steps {
		shapes[st.name] = tensor.CopyShape(st.info.Shape)
	}
	return shapes
}

package converter_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/converter"
)

// TestInt8ArtifactRejected: the loaders decode the paper's uint8/uint16
// transport encodings and nothing else. A manifest naming any other
// quantization dtype (here the "int8" scheme earlier converters could
// write) is an error that names the dtype — never a guessed byte width,
// which would mis-slice every weight packed after it.
func TestInt8ArtifactRejected(t *testing.T) {
	m, g := buildModel(t)
	graphStore := converter.NewMemStore()
	if _, err := converter.Convert(g, graphStore, converter.Options{QuantizationBytes: 1}); err != nil {
		t.Fatal(err)
	}
	layersStore := converter.NewMemStore()
	if _, err := converter.SaveLayersModel(m, layersStore, converter.Options{QuantizationBytes: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store *converter.MemStore
		load  func(converter.Store) error
	}{
		{"LoadArtifacts", graphStore, func(s converter.Store) error { _, err := converter.LoadArtifacts(s); return err }},
		{"LoadLayersModel", layersStore, func(s converter.Store) error { _, err := converter.LoadLayersModel(s); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.load(tc.store); err != nil {
				t.Fatalf("uint8 artifact must load: %v", err)
			}
			raw, err := tc.store.Read("model.json")
			if err != nil {
				t.Fatal(err)
			}
			var model converter.ModelJSON
			if err := json.Unmarshal(raw, &model); err != nil {
				t.Fatal(err)
			}
			model.WeightsManifest[0].Weights[0].Quantization.DType = "int8"
			patched, err := json.Marshal(model)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.store.Write("model.json", patched); err != nil {
				t.Fatal(err)
			}
			err = tc.load(tc.store)
			if err == nil || !strings.Contains(err.Error(), `"int8"`) {
				t.Fatalf("want an error naming dtype \"int8\", got %v", err)
			}
		})
	}
}

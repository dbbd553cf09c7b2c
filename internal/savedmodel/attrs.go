package savedmodel

import (
	"fmt"
	"slices"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// DecodeAttrs maps node n's GraphDef attributes onto the kernel attributes
// its plan step dispatches, giving each absent one its GraphDef default:
// strides [1, 1], a pool's ksize [2, 2] and strides its ksize, padding
// "valid", a batch norm's epsilon 1e-3, a Placeholder's dtype float32, a
// Concat's and a GatherV2's axis 0. It is the one reader of NodeDef.Attrs
// — the verifier, the optimizer and the plan compile all call it — so a
// malformed attribute is the same error wherever it is read. Values are
// what encoding/json decodes (float64, string, bool, []any) or an
// in-memory graph's Go forms ([]int, int); a nil value is absent. The
// error names the node and the attribute key.
func DecodeAttrs(n *NodeDef) (kernels.Attrs, error) {
	d := attrDecoder{n: n}
	var a kernels.Attrs
	switch n.Op {
	case "Placeholder":
		a.Shape = d.ints("shape")
		a.DType = d.dtype("dtype")
	case "Reshape":
		a.Shape = d.ints("shape")
	case "MatMul":
		a.TransposeA, a.TransposeB = d.bool("transpose_a"), d.bool("transpose_b")
	case "_FusedMatMul":
		a.TransposeA, a.TransposeB = d.bool("transpose_a"), d.bool("transpose_b")
		a.Activation = d.activation()
	case "Conv2D", "DepthwiseConv2dNative":
		a.Strides, a.Pad = d.window("strides", []int{1, 1}), d.padding()
	case "FusedConv2D", "FusedDepthwiseConv2dNative":
		a.Strides, a.Pad = d.window("strides", []int{1, 1}), d.padding()
		a.Activation = d.activation()
	case "MaxPool", "AvgPool":
		a.FilterSize = d.window("ksize", []int{2, 2})
		a.Strides, a.Pad = d.window("strides", a.FilterSize), d.padding()
	case "Mean":
		a.Axes = d.ints("axes")
		a.KeepDims = d.bool("keep_dims")
	case "FusedBatchNorm":
		a.Epsilon = d.float("epsilon", 1e-3)
	case "Slice":
		// A size of -1 runs to the end of its dim, a graph's batch.
		a.Begin, a.Shape = d.ints("begin"), d.ints("size")
	case "Concat", "GatherV2":
		a.Axis = d.int("axis")
	case "Pad":
		// [top bottom left right] of an NHWC input, as PadV2's pairs.
		if p := d.ints("padding"); len(p) == 4 {
			a.Paddings = []int{0, 0, p[0], p[1], p[2], p[3], 0, 0}
		} else {
			d.fail("padding", "needs [top bottom left right], got %v", p)
		}
	}
	return a, d.err
}

// attrError is a malformed attribute: msg names the key.
type attrError struct {
	node, op, msg string
}

func (e *attrError) Error() string { return fmt.Sprintf("node %q (%s): %s", e.node, e.op, e.msg) }

// attrDecoder reads one node's attributes, keeping the first malformed
// one's error; after it, every read returns the zero value.
type attrDecoder struct {
	n   *NodeDef
	err error
}

func (d *attrDecoder) fail(key, format string, args ...any) {
	if d.err == nil {
		d.err = &attrError{d.n.Name, d.n.Op, fmt.Sprintf("attr %q ", key) + fmt.Sprintf(format, args...)}
	}
}

// get returns key's value, nil when absent or after an error.
func (d *attrDecoder) get(key string) any {
	if d.err != nil {
		return nil
	}
	return d.n.Attrs[key]
}

// jsonType names v's JSON type for an error message.
func jsonType(v any) string {
	switch v.(type) {
	case string:
		return "a string"
	case bool:
		return "a bool"
	case float64, int:
		return "a number"
	case []any, []int:
		return "a list"
	case map[string]any:
		return "an object"
	}
	return fmt.Sprintf("a %T", v)
}

func (d *attrDecoder) bool(key string) bool {
	switch v := d.get(key).(type) {
	case nil:
		return false
	case bool:
		return v
	default:
		d.fail(key, "is %s, want a bool", jsonType(v))
		return false
	}
}

func (d *attrDecoder) float(key string, def float64) float64 {
	switch v := d.get(key).(type) {
	case nil:
		return def
	case float64:
		return v
	case int:
		return float64(v)
	default:
		d.fail(key, "is %s, want a number", jsonType(v))
		return def
	}
}

// int reads an integer, 0 when absent.
func (d *attrDecoder) int(key string) int {
	f := d.float(key, 0)
	if f != float64(int(f)) {
		d.fail(key, "is %v, want an integer", f)
	}
	return int(f)
}

func (d *attrDecoder) dtype(key string) tensor.DataType {
	switch v := d.get(key).(type) {
	case nil:
		return tensor.Float32
	case string:
		dt, err := tensor.ParseDataType(v)
		if err != nil {
			d.fail(key, "is %q, want float32, int32 or bool", v)
		}
		return dt
	default:
		d.fail(key, "is %s, want a dtype name", jsonType(v))
		return tensor.Float32
	}
}

// ints reads a list of integers, nil when the key is absent (an empty
// list is not nil).
func (d *attrDecoder) ints(key string) []int {
	switch v := d.get(key).(type) {
	case nil:
		return nil
	case []int:
		return slices.Clone(v)
	case []any:
		ints := make([]int, len(v))
		for i, e := range v {
			switch x := e.(type) {
			case int:
				ints[i] = x
			case float64:
				if x != float64(int(x)) {
					d.fail(key, "entry %d is %v, want an integer", i, x)
					return nil
				}
				ints[i] = int(x)
			default:
				d.fail(key, "entry %d is %s, want an integer", i, jsonType(e))
				return nil
			}
		}
		return ints
	default:
		d.fail(key, "is %s, want a list of integers", jsonType(v))
		return nil
	}
}

// window reads a window kernel's [h, w] pair of positive integers, def
// when absent.
func (d *attrDecoder) window(key string, def []int) []int {
	w := d.ints(key)
	switch {
	case w == nil:
		return def
	case len(w) != 2:
		d.fail(key, "has %d entries, want 2", len(w))
	case w[0] < 1 || w[1] < 1:
		d.fail(key, "is %v, want entries of at least 1", w)
	}
	return w
}

// padding reads a window kernel's padding, "valid" when absent.
func (d *attrDecoder) padding() string {
	switch v := d.get("padding").(type) {
	case nil:
		return "valid"
	case string:
		if v != "same" && v != "valid" {
			d.fail("padding", "is %q, want \"same\" or \"valid\"", v)
		}
		return v
	default:
		d.fail("padding", "is %s, want \"same\" or \"valid\"", jsonType(v))
		return "valid"
	}
}

// activation reads a fused kernel's activation: "" or an activation of the
// element-wise table (kernels.Activation, the lookup the kernels make).
func (d *attrDecoder) activation() string {
	switch v := d.get("activation").(type) {
	case nil:
		return ""
	case string:
		if _, ok := kernels.Activation(v); !ok {
			d.fail("activation", "is %q, not a fused activation", v)
		}
		return v
	default:
		d.fail("activation", "is %s, want an activation name", jsonType(v))
		return ""
	}
}

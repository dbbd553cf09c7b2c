package serving

// This file is the predict wire codec: request bytes → []Instance and
// []Instance → response bytes, each in one pass with no intermediate
// value tree. The decoder accepts exactly the bodies the previous
// encoding/json pipeline accepted (json.Unmarshal into
// struct{Instances []json.RawMessage}, then json.Unmarshal of each
// element into any, then ParseInstance) and produces bit-identical
// Values; the encoder emits exactly the bytes json.Encoder emitted for
// map[string]any{"predictions": []any{inst.Render()...}}. Both claims are
// held by the differential tests in codec_test.go, which keep
// encoding/json + ParseInstance/Render as the oracle.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"
)

const (
	// maxJSONDepth is encoding/json's nesting limit: the 10001st open
	// array or object anywhere in the body is an error.
	maxJSONDepth = 10000
	// bodyPresize caps how much of the body buffer is allocated up front
	// on the word of an (untrusted) Content-Length; past it the buffer
	// grows as bytes actually arrive.
	bodyPresize = 1 << 20
	// poolKeepBytes is the most a buffer, or a decoder's buffers together,
	// may hold and still go back to a sync.Pool; one oversized request must
	// not pin its buffers for the process lifetime.
	poolKeepBytes = 4 << 20
)

// syntaxError reports a body that is not valid JSON.
type syntaxError struct {
	msg    string
	offset int
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("malformed request body: %s at offset %d", e.msg, e.offset)
}

// instanceError reports a body that is valid JSON so far but whose
// instance is not a rectangular nested array of in-range numbers.
type instanceError struct{ msg string }

func (e *instanceError) Error() string { return "serving: " + e.msg }

func isInstanceError(err error) bool {
	var ie *instanceError
	return errors.As(err, &ie)
}

var (
	errNoInstances    = errors.New("no instances in request")
	errInstancesArray = errors.New(`malformed request body: "instances" must be an array`)
)

// predictDecoder holds the request body, the decoded instances and the
// walk's scratch state, all reused across requests through decoderPool.
//
// The decoder owns what it decoded: every instance's Values and Shape are
// capped slices of its two arenas, valid until release. Whoever calls
// decode therefore releases the decoder only once no one can read those
// instances any more; a decoder whose instances may still be read (by a
// request its submitter abandoned, say) is left to the GC instead.
type predictDecoder struct {
	body bytes.Buffer
	data []byte // the bytes being parsed: body's, or a test's own slice
	pos  int

	// instErr is the first instanceError of the current "instances"
	// array. It is held back until the closing brace: a syntax error
	// later in the body outranks it, and a repeated "instances" key
	// supersedes the array it came from.
	instErr error

	vals   []float32  // arena: the values of every instance decoded so far, back to back
	shapes []int      // arena: their shapes, back to back
	insts  []Instance // the decoded instances, sliced out of the arenas
	dims   []int      // array length fixed at each depth; -1 while the first array there is open
	counts []int      // elements seen so far in each open array of the current instance
	nest   []byte     // open containers ('{' or '[') of the value being skipped
}

var decoderPool = sync.Pool{New: func() any { return new(predictDecoder) }}

// release returns d, and with it every instance it decoded, to the pool
// unless a large request grew it past poolKeepBytes.
func (d *predictDecoder) release() {
	d.data, d.instErr = nil, nil
	if d.heldBytes() > poolKeepBytes {
		return
	}
	decoderPool.Put(d)
}

// heldBytes is what d's body buffer, arenas and instance slice hold
// between requests. The per-depth scratch is left out: maxJSONDepth
// bounds it.
func (d *predictDecoder) heldBytes() int {
	return d.body.Cap() + 4*cap(d.vals) + 8*cap(d.shapes) +
		int(unsafe.Sizeof(Instance{}))*cap(d.insts)
}

// readBody buffers r, which the caller has already bounded. sizeHint is
// the request's Content-Length (or -1).
func (d *predictDecoder) readBody(r io.Reader, sizeHint int64) error {
	d.body.Reset()
	if sizeHint > 0 {
		d.body.Grow(int(min(sizeHint, bodyPresize)))
	}
	_, err := d.body.ReadFrom(r)
	d.data = d.body.Bytes()
	return err
}

// decode walks d.data once. Object keys match "instances" the way
// encoding/json matches a struct field (case-insensitively, after
// unescaping), unknown keys are skipped with full grammar checking, and a
// repeated key replaces the earlier value. The instances it returns are
// d's (see predictDecoder).
func (d *predictDecoder) decode() ([]Instance, error) {
	d.pos, d.instErr = 0, nil
	if c, ok := d.peek(); !ok {
		return nil, d.syntaxErr("unexpected end of input")
	} else if c != '{' {
		return nil, d.syntaxErr("request is not a JSON object")
	}
	d.pos++
	insts := d.insts[:0]
	if c, _ := d.peek(); c == '}' {
		d.pos++
	} else {
		for {
			key, err := d.key()
			if err != nil {
				return nil, err
			}
			if !bytes.EqualFold(unescape(key), []byte("instances")) {
				err = d.skipValue(1)
			} else if c, _ := d.peek(); c == 'n' {
				insts, d.instErr = insts[:0], nil
				d.vals, d.shapes = d.vals[:0], d.shapes[:0]
				err = d.literal()
			} else if c == '[' {
				d.vals, d.shapes = d.vals[:0], d.shapes[:0]
				insts, err = d.instances(insts[:0])
			} else {
				err = errInstancesArray
			}
			if err != nil {
				return nil, err
			}
			c, ok := d.peek()
			if !ok {
				return nil, d.syntaxErr("unexpected end of input")
			}
			if c == '}' {
				d.pos++
				break
			}
			if c != ',' {
				return nil, d.syntaxErr("expected ',' or '}' after object value")
			}
			d.pos++
		}
	}
	if _, ok := d.peek(); ok {
		return nil, d.syntaxErr("unexpected data after the request object")
	}
	if d.instErr != nil {
		return nil, d.instErr
	}
	if len(insts) == 0 {
		return nil, errNoInstances
	}
	// The walk appended to the arenas, which may have moved since an
	// instance was read: only its slices' lengths are still good. Each is
	// sliced again out of the final arenas, capped so that an append to
	// one instance cannot write into its neighbour.
	vlo, slo := 0, 0
	for i, inst := range insts {
		vhi, shi := vlo+len(inst.Values), slo+len(inst.Shape)
		insts[i].Values = d.vals[vlo:vhi:vhi]
		if inst.Shape != nil {
			insts[i].Shape = d.shapes[slo:shi:shi]
		}
		vlo, slo = vhi, shi
	}
	d.insts = insts
	return insts, nil
}

// instances parses the array at d.pos into insts. An element that fails
// with an instanceError sets d.instErr and is walked again for grammar
// alone, so the rest of the body is still checked; the arenas are cut back
// to where an element began whenever it is not kept.
func (d *predictDecoder) instances(insts []Instance) ([]Instance, error) {
	d.pos++ // '['
	d.instErr = nil
	if c, _ := d.peek(); c == ']' {
		d.pos++
		return insts, nil
	}
	for {
		d.pos = skipSpace(d.data, d.pos)
		start, nvals, nshapes := d.pos, len(d.vals), len(d.shapes)
		inst, err := d.instance()
		if err == nil && d.instErr == nil {
			insts = append(insts, inst)
		} else {
			d.vals, d.shapes = d.vals[:nvals], d.shapes[:nshapes]
		}
		switch {
		case err == nil:
		case isInstanceError(err):
			if d.instErr == nil {
				d.instErr = err
			}
			d.pos = start
			if err := d.skipValue(2); err != nil {
				return nil, err
			}
		default:
			return nil, err
		}
		c, ok := d.peek()
		if !ok {
			return nil, d.syntaxErr("unexpected end of input")
		}
		if c == ']' {
			d.pos++
			return insts, nil
		}
		if c != ',' {
			return nil, d.syntaxErr("expected ',' or ']' after array element")
		}
		d.pos++
	}
}

// instance parses one instance — a number or a rectangular nesting of
// arrays of numbers — appending leaves to the d.vals arena as they are
// read, fixing each depth's length the first time an array at that depth
// closes, and appending the shape to the d.shapes arena at the end. It
// allocates nothing once the arenas have grown to a request's size. The
// Instance it returns points at the arenas as they stand; decode slices it
// again once the walk is over. d.pos is left after the instance on success
// and is unspecified on error.
func (d *predictDecoder) instance() (Instance, error) {
	data, p := d.data, d.pos
	vals, dims, counts := d.vals, d.dims[:0], d.counts[:0]
	defer func() { d.vals, d.dims, d.counts = vals, dims, counts }()
	first := len(vals)
	rank := -1 // depth at which leaves sit; unknown until the first leaf or empty array

	for {
		// A value starts at p.
		p = skipSpace(data, p)
		if p >= len(data) {
			return Instance{}, &syntaxError{"unexpected end of input", p}
		}
		emptyArray := false
		switch c := data[p]; {
		case c == '-' || '0' <= c && c <= '9':
			f, end, err := parseNumber(data, p)
			if err != nil {
				return Instance{}, err
			}
			if rank < 0 {
				rank = len(counts)
			} else if len(counts) != rank {
				return Instance{}, &instanceError{"ragged instance: expected array, got number"}
			}
			vals = append(vals, float32(f))
			p = end
		case c == '[':
			depth := len(counts)
			if rank >= 0 && depth >= rank {
				return Instance{}, &instanceError{"ragged instance: expected number, got array"}
			}
			if 2+depth+1 > maxJSONDepth { // the request object and "instances" array are open too
				return Instance{}, &syntaxError{"exceeded max depth", p}
			}
			if depth == len(dims) {
				dims = append(dims, -1)
			}
			counts = append(counts, 0)
			p = skipSpace(data, p+1)
			if p >= len(data) || data[p] != ']' {
				continue
			}
			emptyArray = true
		case c == '"' || c == '{' || c == 't' || c == 'f' || c == 'n':
			return Instance{}, &instanceError{"instance element is not a number or array"}
		default:
			return Instance{}, &syntaxError{"invalid character " + strconv.QuoteRune(rune(c)) + " looking for beginning of value", p}
		}

		// A value ended at p (or p is the ']' of an empty array): count it
		// in its parent and close every array that ends here.
		for {
			if !emptyArray {
				if len(counts) == 0 {
					d.pos = p
					inst := Instance{Values: vals[first:]}
					if rank > 0 {
						d.shapes = append(d.shapes, dims[:rank]...)
						inst.Shape = d.shapes[len(d.shapes)-rank:]
					}
					return inst, nil
				}
				counts[len(counts)-1]++
				p = skipSpace(data, p)
				if p >= len(data) {
					return Instance{}, &syntaxError{"unexpected end of input", p}
				}
				if data[p] == ',' {
					p++
					break
				}
				if data[p] != ']' {
					return Instance{}, &syntaxError{"expected ',' or ']' after array element", p}
				}
			}
			emptyArray = false
			p++ // ']'
			depth := len(counts) - 1
			n := counts[depth]
			counts = counts[:depth]
			switch {
			case dims[depth] < 0:
				dims[depth] = n
				if n == 0 {
					rank = depth + 1
				}
			case dims[depth] != n:
				return Instance{}, &instanceError{fmt.Sprintf("ragged instance: expected array of %d, got %d", dims[depth], n)}
			}
		}
	}
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseNumber parses the JSON number at data[p] (a '-' or a digit) and
// returns the float64 strconv.ParseFloat returns for the same text, and
// the offset after it. With at most 19 digits, a mantissa below 2^53 and
// a decimal exponent within ±22, mantissa and power of ten are both exact
// float64s, so the single IEEE multiply or divide is the correctly
// rounded result (Clinger's fast path); everything else goes to strconv.
// The error is a *syntaxError, or an *instanceError for a valid number no
// float64 holds.
func parseNumber(data []byte, p int) (float64, int, error) {
	start := p
	neg := data[p] == '-'
	if neg {
		p++
	}
	// mant wraps silently past 19 digits; the digit count below sends
	// those numbers to strconv before mant is looked at.
	var mant uint64
	intStart := p
	switch {
	case p < len(data) && data[p] == '0':
		p++
	case p < len(data) && '1' <= data[p] && data[p] <= '9':
		for ; p < len(data) && '0' <= data[p] && data[p] <= '9'; p++ {
			mant = mant*10 + uint64(data[p]-'0')
		}
	default:
		return 0, p, &syntaxError{"invalid character in numeric literal", p}
	}
	digits, exp10 := p-intStart, 0 // value = mant × 10^exp10
	if p < len(data) && data[p] == '.' {
		p++
		fracStart := p
		for ; p < len(data) && '0' <= data[p] && data[p] <= '9'; p++ {
			mant = mant*10 + uint64(data[p]-'0')
		}
		if p == fracStart {
			return 0, p, &syntaxError{"invalid character after decimal point in numeric literal", p}
		}
		digits += p - fracStart
		exp10 = fracStart - p
	}
	if p < len(data) && data[p]|0x20 == 'e' {
		p++
		expNeg := false
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			expNeg = data[p] == '-'
			p++
		}
		expStart := p
		e := 0
		for ; p < len(data) && '0' <= data[p] && data[p] <= '9'; p++ {
			if e < 10000 { // already far outside the fast path; keeps e from overflowing
				e = e*10 + int(data[p]-'0')
			}
		}
		if p == expStart {
			return 0, p, &syntaxError{"invalid character in exponent of numeric literal", p}
		}
		if expNeg {
			e = -e
		}
		exp10 += e
	}
	if digits <= 19 && mant < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(mant)
		if exp10 < 0 {
			f /= pow10[-exp10]
		} else {
			f *= pow10[exp10]
		}
		if neg {
			f = -f
		}
		return f, p, nil
	}
	f, err := strconv.ParseFloat(string(data[start:p]), 64)
	if err != nil {
		return 0, p, &instanceError{fmt.Sprintf("number %s does not fit a float64", data[start:p])}
	}
	return f, p, nil
}

// skipValue validates and steps over one JSON value of any kind. outer is
// the number of containers already open around it.
func (d *predictDecoder) skipValue(outer int) error {
	nest := d.nest[:0]
	defer func() { d.nest = nest }()
	for {
		// A value starts here.
		c, ok := d.peek()
		if !ok {
			return d.syntaxErr("unexpected end of input")
		}
		var err error
		switch {
		case c == '{' || c == '[':
			if outer+len(nest)+1 > maxJSONDepth {
				return d.syntaxErr("exceeded max depth")
			}
			d.pos++
			if next, _ := d.peek(); next == c+2 { // '}' is '{'+2 and ']' is '['+2
				d.pos++
				break
			}
			nest = append(nest, c)
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			_, err = d.str()
		case c == '-' || '0' <= c && c <= '9':
			_, d.pos, err = parseNumber(d.data, d.pos)
			if isInstanceError(err) {
				err = nil // too large for a float64 is still a JSON number
			}
		case c == 't' || c == 'f' || c == 'n':
			err = d.literal()
		default:
			err = d.syntaxErr("invalid character " + strconv.QuoteRune(rune(c)) + " looking for beginning of value")
		}
		if err != nil {
			return err
		}
		// A value just ended: close every container that ends here.
		for {
			if len(nest) == 0 {
				return nil
			}
			open := nest[len(nest)-1]
			c, ok := d.peek()
			if !ok {
				return d.syntaxErr("unexpected end of input")
			}
			if c == ',' {
				d.pos++
				if open == '{' {
					if _, err := d.key(); err != nil {
						return err
					}
				}
				break
			}
			if c != open+2 {
				return d.syntaxErr("expected ',' or closing bracket after value")
			}
			d.pos++
			nest = nest[:len(nest)-1]
		}
	}
}

// key parses an object key and the colon after it, and returns the key's
// bytes between the quotes, escapes intact.
func (d *predictDecoder) key() ([]byte, error) {
	if c, ok := d.peek(); !ok {
		return nil, d.syntaxErr("unexpected end of input")
	} else if c != '"' {
		return nil, d.syntaxErr("expected a string object key")
	}
	raw, err := d.str()
	if err != nil {
		return nil, err
	}
	if c, ok := d.peek(); !ok {
		return nil, d.syntaxErr("unexpected end of input")
	} else if c != ':' {
		return nil, d.syntaxErr("expected ':' after object key")
	}
	d.pos++
	return raw, nil
}

// str validates the string literal at d.pos and returns the bytes
// between its quotes, escapes intact.
func (d *predictDecoder) str() ([]byte, error) {
	data := d.data
	start := d.pos + 1
	for p := start; p < len(data); p++ {
		switch c := data[p]; {
		case c == '"':
			d.pos = p + 1
			return data[start:p], nil
		case c < 0x20:
			d.pos = p
			return nil, d.syntaxErr("invalid control character in string literal")
		case c == '\\':
			p++
			if p >= len(data) {
				break
			}
			switch data[p] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for i := 1; i <= 4; i++ {
					if p+i >= len(data) || hexVal(data[p+i]) < 0 {
						d.pos = min(p+i, len(data))
						return nil, d.syntaxErr("invalid \\u escape in string literal")
					}
				}
				p += 4
			default:
				d.pos = p
				return nil, d.syntaxErr("invalid escape in string literal")
			}
		}
	}
	d.pos = len(data)
	return nil, d.syntaxErr("unexpected end of input")
}

func hexVal(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c|0x20 && c|0x20 <= 'f':
		return int(c|0x20-'a') + 10
	}
	return -1
}

// unescape resolves the escapes of a string body that str validated.
// Only object keys come through here, to be compared with "instances",
// so surrogate escapes (paired or not) become U+FFFD: no letter of
// "instances", and nothing that folds to one, lies above them.
func unescape(raw []byte) []byte {
	if bytes.IndexByte(raw, '\\') < 0 {
		return raw
	}
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		switch raw[i] {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := rune(hexVal(raw[i+1])<<12 | hexVal(raw[i+2])<<8 | hexVal(raw[i+3])<<4 | hexVal(raw[i+4]))
			out = utf8.AppendRune(out, r)
			i += 4
		default: // '"', '\\', '/'
			out = append(out, raw[i])
		}
	}
	return out
}

// literal validates true, false or null at d.pos.
func (d *predictDecoder) literal() error {
	for _, word := range [...]string{"true", "false", "null"} {
		if bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
			d.pos += len(word)
			return nil
		}
	}
	return d.syntaxErr("invalid literal")
}

// skipSpace returns the offset of the first byte at or after p that is
// not JSON whitespace.
func skipSpace(data []byte, p int) int {
	for p < len(data) && (data[p] == ' ' || data[p] == '\n' || data[p] == '\t' || data[p] == '\r') {
		p++
	}
	return p
}

// peek skips whitespace and returns the next byte without consuming it.
func (d *predictDecoder) peek() (byte, bool) {
	d.pos = skipSpace(d.data, d.pos)
	if d.pos >= len(d.data) {
		return 0, false
	}
	return d.data[d.pos], true
}

func (d *predictDecoder) syntaxErr(msg string) error {
	return &syntaxError{msg: msg, offset: d.pos}
}

var encodeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendPredictions appends the response body for outs:
// {"predictions":[...]} and a newline, byte for byte what json.Encoder
// writes for the Render() trees. It fails — before the caller has written
// anything — on a non-finite value or an instance whose Values do not
// fill its Shape.
func appendPredictions(dst []byte, outs []Instance) ([]byte, error) {
	dst = append(dst, `{"predictions":[`...)
	for i, out := range outs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if len(out.Values) != out.numElements() {
			return dst, fmt.Errorf("output has %d values for shape %v", len(out.Values), out.Shape)
		}
		var err error
		if dst, _, err = appendNested(dst, out.Values, out.Shape); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}\n"...), nil
}

// appendNested appends values as arrays nested per shape and returns the
// values left over for the caller's next sibling.
func appendNested(dst []byte, values []float32, shape []int) ([]byte, []float32, error) {
	if len(shape) == 0 {
		v := values[0]
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return dst, nil, fmt.Errorf("non-finite output value %v, which JSON cannot carry", v)
		}
		return appendFloat32(dst, v), values[1:], nil
	}
	dst = append(dst, '[')
	for i := 0; i < shape[0]; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, values, err = appendNested(dst, values, shape[1:]); err != nil {
			return dst, nil, err
		}
	}
	return append(dst, ']'), values, nil
}

// appendFloat32 formats a finite v as encoding/json formats a float32:
// shortest digits that round-trip, ES6 exponent cutoffs, no zero-padded
// negative exponent.
func appendFloat32(dst []byte, v float32) []byte {
	format := byte('f')
	if abs := float32(math.Abs(float64(v))); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(v), format, -1, 32)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

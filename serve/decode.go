package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

const maxJSONDepth = 10000 // encoding/json's nesting limit

// The known keys of the schema's three objects, in the order the decoder's
// switches number them.
var requestKeys, tensorKeys, outputKeys = []string{"id", "inputs", "outputs"},
	[]string{"name", "shape", "datatype", "data", "scale"}, []string{"name"}

// decodeInferRequest is the one decoder of infer request bodies: a strict
// single pass over the fixed InferRequest schema that scans every "data"
// array straight into the []float32 the tensor will own, and a complete
// JSON validator on its own. It accepts what encoding/json accepts for the
// same struct and stores the same values (null stores nothing, unknown keys
// are skipped, a number that overflows its field is an error, nesting ends
// at 10000), with three deliberate differences, each an error:
//
//   - non-whitespace after the top-level value (json.Decoder stopped reading
//     there, so `{…} garbage` was served);
//   - keys match case-sensitively: "Inputs" is an unknown key, not "inputs";
//   - a known key repeated in one object (encoding/json merged the values).
//
// Every error wraps ErrBadRequest. Nothing in req aliases body afterwards.
func decodeInferRequest(body []byte, req *InferRequest) error {
	d := inferDecoder{b: body}
	err := d.object(1, requestKeys, func(k int) error {
		switch k {
		case 0:
			return d.str(&req.ID)
		case 1:
			req.Inputs = nil
			return d.list('[', func() error {
				req.Inputs = append(req.Inputs, InferTensor{})
				return d.tensor(&req.Inputs[len(req.Inputs)-1])
			})
		default:
			req.Outputs = nil
			return d.list('[', func() error {
				req.Outputs = append(req.Outputs, RequestedOutput{})
				out := &req.Outputs[len(req.Outputs)-1]
				return d.object(3, outputKeys, func(int) error { return d.str(&out.Name) })
			})
		}
	})
	if d.peek(); err == nil && d.i < len(d.b) {
		err = d.errf("data after the top-level value")
	}
	return err
}

// UnmarshalJSON decodes through decodeInferRequest, so json.Unmarshal
// callers run the server's decode path (behind encoding/json's own two
// syntax scans of the body).
func (r *InferRequest) UnmarshalJSON(b []byte) error { return decodeInferRequest(b, r) }

func (d *inferDecoder) tensor(it *InferTensor) error {
	return d.object(3, tensorKeys, func(k int) (err error) {
		switch k {
		case 0:
			return d.str(&it.Name)
		case 1:
			it.Shape = make([]int, 0, 4)
			return d.list('[', func() error {
				n, err := d.int()
				it.Shape = append(it.Shape, n)
				return err
			})
		case 2:
			return d.str(&it.Datatype)
		case 3:
			return d.floats(&it.Data)
		default:
			it.Scale, err = d.float()
			return err
		}
	})
}

// inferDecoder is a cursor over a request body. Its readers skip the
// whitespace before their value and leave the cursor behind its last byte.
type inferDecoder struct {
	b []byte
	i int
}

func (d *inferDecoder) errf(format string, args ...any) error {
	return fmt.Errorf("%w: decoding infer request: %s at byte %d", ErrBadRequest, fmt.Sprintf(format, args...), d.i)
}

// peek moves the cursor over whitespace and returns the byte there, 0 at
// the end of the body (which no caller wants: a NUL byte is valid nowhere).
func (d *inferDecoder) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		if c := d.b[d.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// lit consumes the literal s if it comes next.
func (d *inferDecoder) lit(s string) bool {
	if d.peek(); !bytes.HasPrefix(d.b[d.i:], []byte(s)) {
		return false
	}
	d.i += len(s)
	return true
}

// list reads the container that opens with `open`, calling elem at each of
// its comma-separated members; a null in its place is read as nothing.
func (d *inferDecoder) list(open byte, elem func() error) error {
	if d.lit("null") {
		return nil
	}
	if d.peek() != open {
		return d.errf("want '%c'", open)
	}
	closing := open + 2 // '['+2 == ']', '{'+2 == '}'
	d.i++
	if d.peek() == closing {
		d.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case closing:
			d.i++
			return nil
		default:
			return d.errf("want ',' or '%c'", closing)
		}
	}
}

// object reads an object: field(k) reads the value of the known key keys[k],
// any other key's value is skipped. depth counts the containers open inside
// the object, itself included.
func (d *inferDecoder) object(depth int, keys []string, field func(k int) error) error {
	seen := 0
	return d.list('{', func() error {
		key, err := d.token()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.errf("want ':' after an object key")
		}
		d.i++
		k := 0
		for k < len(keys) && string(key) != keys[k] {
			k++
		}
		if k == len(keys) {
			return d.skip(depth)
		}
		if seen&(1<<k) != 0 {
			return d.errf("duplicate key %q", keys[k])
		}
		seen |= 1 << k
		return field(k)
	})
}

// skip validates and passes over any JSON value; depth counts the containers
// open around it.
func (d *inferDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth >= maxJSONDepth {
			return d.errf("exceeded max depth")
		}
		if c == '{' {
			return d.object(depth+1, nil, nil)
		}
		return d.list('[', func() error { return d.skip(depth + 1) })
	case c == '"':
		_, err := d.token()
		return err
	case d.lit("true") || d.lit("false") || d.lit("null"):
		return nil
	}
	if _, end, _ := parseFloat32(d.b, d.i); end >= 0 { // of any size: it is stored nowhere
		d.i = end
		return nil
	}
	return d.errf("want a value")
}

// token reads a string and returns its contents: a slice of the body when it
// is plain ASCII, else encoding/json's reading of that one token.
func (d *inferDecoder) token() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errf("want a string")
	}
	plain := true
	for i := d.i + 1; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			tok := d.b[d.i : i+1]
			if plain {
				d.i = i + 1
				return tok[1 : len(tok)-1], nil
			}
			var s string
			if err := json.Unmarshal(tok, &s); err != nil {
				return nil, d.errf("%v in a string", err)
			}
			d.i = i + 1
			return []byte(s), nil
		case c == '\\':
			plain = false
			i++ // whatever is escaped, it does not end the string
		case c < ' ' || c >= 0x80: // an error, or U+FFFD where it is not UTF-8
			plain = false
		}
	}
	return nil, d.errf("unterminated string")
}

func (d *inferDecoder) str(dst *string) error {
	if d.lit("null") {
		return nil
	}
	s, err := d.token()
	switch string(s) { // the two expected datatypes cost no allocation
	case DatatypeFP32:
		*dst = DatatypeFP32
	case DatatypeINT8:
		*dst = DatatypeINT8
	default:
		*dst = string(s)
	}
	return err
}

// int reads an integer that fits an int, as encoding/json wants a number
// stored into one: no fraction, no exponent. A null is 0.
func (d *inferDecoder) int() (int, error) {
	if d.lit("null") {
		return 0, nil
	}
	_, end, _ := parseFloat32(d.b, d.i)
	n, err := strconv.ParseInt(string(d.b[d.i:max(end, d.i)]), 10, strconv.IntSize)
	if err != nil {
		return 0, d.errf("want an integer that fits an int")
	}
	d.i = end
	return int(n), nil
}

// float reads a number in float32 range. A null is 0.
func (d *inferDecoder) float() (float32, error) {
	d.peek()
	v, end, err := parseFloat32(d.b, d.i)
	if end < 0 && d.lit("null") {
		return 0, nil
	}
	if end < 0 || err != nil {
		return 0, d.errf("want a number in float32 range")
	}
	d.i = end
	return v, nil
}

// floats reads a "data" array into a slice allocated once at its final size:
// a flat array of n ≥ 1 numbers holds n-1 commas before its first ']', and
// no element takes fewer than two bytes with its separator, which bounds the
// allocation by twice the body whatever the body holds.
func (d *inferDecoder) floats(dst *[]float32) error {
	if d.peek() == '[' {
		elems := d.b[d.i : d.i+max(bytes.IndexByte(d.b[d.i:], ']'), 0)]
		*dst = make([]float32, 0, min(bytes.Count(elems, []byte(",")), len(elems)/2)+1)
	}
	// The common spelling, numbers and bare commas, stays in this loop; at
	// anything else — whitespace, null, ']' or an error — list's element
	// loop takes over at the same byte, so grammar and errors are its own.
	return d.list('[', func() error {
		for {
			v, end, err := parseFloat32(d.b, d.i)
			if end < 0 || err != nil {
				v, err = d.float()
				*dst = append(*dst, v)
				return err
			}
			*dst = append(*dst, v)
			if d.i = end; end == len(d.b) || d.b[end] != ',' {
				return nil
			}
			d.i++
		}
	})
}

// parseFloat32 reads the JSON number at b[i:] and returns the bits
// strconv.ParseFloat(·, 32) returns for it, the index behind it (-1 when
// b[i:] does not start with a number in JSON's grammar), and strconv's
// error for a number out of float32 range.
func parseFloat32(b []byte, i int) (float32, int, error) {
	// Fast path: -?int.frac with at most 8 integer and 15 fraction digits,
	// the spelling of encoding/json and of most clients, where 16 bytes
	// follow the '.' (19 bytes for -0.frac), so that every chunk is in b.
	// Runs of digits are read 8 bytes at a time (digits8), but for an
	// integer part of one digit, the common case, read as a byte: the
	// fraction's loads then need not wait for a chunk's digit count. The
	// sign and the second fraction chunk are masked, not branched on.
	// Exponents, longer mantissas and a body's last bytes take the general
	// code below.
	if len(b)-i >= 19 {
		sign := (uint64(b[i]^'-') - 1) >> 63 // 1 for '-'
		s := i + int(sign)
		ni, vi := uint(1), uint64(b[s]-'0') // one integer digit, the common case
		if b[s+1] != '.' {
			ni, vi = digits8(chunk(b, s))
		}
		p := s + int(ni)
		if b[p] == '.' && (b[s]-'1' < 9 || b[s] == '0' && ni == 1) && len(b)-p > 16 {
			nf1, vf1 := digits8(chunk(b, p+1))
			nf2, vf2 := digits8(chunk(b, p+9))
			full := -uint64(nf1 >> 3) // the second chunk counts behind 8 digits only
			nf2, vf2 = nf2&uint(full), vf2&full
			nf, end := nf1+nf2, p+1+int(nf1+nf2)
			// ≤ 16 digits do not overflow; below 2^53 the mantissa is
			// exact in float64, and so is 10^nf: one division rounds
			// correctly (Clinger). The midpoint test is the general path's.
			m := vi*pow10i[nf] + vf1*pow10i[nf2] + vf2
			if nf1 > 0 && ni+nf <= 16 && m < 1<<53 && b[end]|0x20 != 'e' {
				if f := math.Float64bits(float64(int64(m)) / pow10[nf]); f&(1<<29-1) != 1<<28 {
					return float32(math.Float64frombits(f | sign<<63)), end, nil
				}
			}
		}
	}
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64 // value = ±mant·10^exp; mant wraps past 19 digits
	nd, exp := 0, 0 // mant's digits without leading zeros
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			nd++
		}
	default:
		return 0, -1, nil
	}
	if i < len(b) && b[i] == '.' {
		first := i + 1
		for i = first; i < len(b) && b[i]-'0' < 10; i++ {
			if mant = mant*10 + uint64(b[i]-'0'); mant != 0 {
				nd++
			}
		}
		if exp = first - i; exp == 0 {
			return 0, -1, nil
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if eneg || i < len(b) && b[i] == '+' {
			i++
		}
		first, e := i, 0
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			e = min(e*10+int(b[i]-'0'), 1e6)
		}
		if i == first {
			return 0, -1, nil
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	// ≤ 15 digits and a power of ten ≤ 22 are exact in float64, so one
	// multiply or divide gives the correctly rounded float64 f, 0 or within
	// [1e-22, 1e37]: a normal float32. Rounding f again to float32 equals
	// rounding the decimal once unless f is exactly the midpoint of two
	// float32 (low 29 mantissa bits 100…0): every such midpoint is a float64,
	// so f and the decimal lie on the same side of all of them.
	if nd <= 15 && -22 <= exp && exp <= 22 {
		f := float64(int64(mant)) // < 1e15: the signed conversion is one instruction
		if exp < 0 {
			f /= math.Pow10(-exp)
		} else {
			f *= math.Pow10(exp)
		}
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			if neg {
				f = -f
			}
			return float32(f), i, nil
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 32)
	return float32(f), i, err
}

// The powers of ten the fast path scales by, exact in both types.
var (
	pow10  = [17]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16}
	pow10i = [17]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16}
)

// shiftUp[n] multiplies a chunk's first n bytes to its top: 1<<(64-8n)
// (mod 2^64). n ≤ 8; the table's 16 entries let n&15 skip a bounds check.
var shiftUp = [16]uint64{0, 1 << 56, 1 << 48, 1 << 40, 1 << 32, 1 << 24, 1 << 16, 1 << 8, 1}

// chunk reads b[i:i+8] with each ASCII digit turned into its value.
func chunk(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i:i+8]) ^ 0x3030303030303030
}

// digits8 returns how many digits the chunk x starts with, n, and their
// value, without a branch per digit. A digit byte is < 10, so neither it
// nor it plus 0x76 has its top bit set; a carry starts only at a byte that
// is no digit and reaches only the bytes after it, so the first flagged
// byte ends the run. The n digits, moved to the top with zeros before
// them, are summed pairwise in three multiplies.
func digits8(x uint64) (uint, uint64) {
	n := uint(bits.TrailingZeros64((x|(x+0x7676767676767676))&0x8080808080808080)) >> 3
	x *= shiftUp[n&15]
	x = x*10 + x>>8 // byte 2k: the two digits 2k, 2k+1
	return n, ((x&0x000000ff000000ff)*(100+1000000<<32) + (x>>16&0x000000ff000000ff)*(1+10000<<32)) >> 32
}

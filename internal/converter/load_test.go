package converter

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// f32sPerValue is the float32 tensor decode Load used before the bulk
// one — one four-byte read per value — kept as the oracle the bulk decode
// is held to.
func f32sPerValue(r *reader, dst []float32) {
	for i := range dst {
		dst[i] = r.f32()
	}
}

// weightHashes hashes each weight's dtype, shape, quantization scale and raw
// bits, so two graphs' weights compare bit for bit without both being kept.
func weightHashes(g *graph.Graph) map[string]uint64 {
	out := make(map[string]uint64, len(g.Weights))
	buf := make([]byte, 0, 1<<16)
	for name, w := range g.Weights {
		h := fnv.New64a()
		fmt.Fprint(h, w.DType(), w.Shape())
		if w.Quant != nil {
			fmt.Fprint(h, math.Float32bits(w.Quant.Scale))
		}
		add := func(b ...byte) {
			if len(buf)+len(b) > cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
			buf = append(buf, b...)
		}
		switch w.DType() {
		case tensor.Float32:
			for _, v := range w.Data() {
				add(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v))...)
			}
		case tensor.Int8:
			for _, v := range w.Int8Data() {
				add(byte(v))
			}
		}
		h.Write(buf)
		buf = buf[:0]
		out[name] = h.Sum64()
	}
	return out
}

// specialsGraph is tinyTransformerGraph with weights where the decode can go
// wrong: "w_chunks" spans one and a half chunks of float32 bit patterns —
// NaNs with payloads (quiet, signalling, negative), ±Inf, ±0, denormals and
// arbitrary words — "w_empty" has no elements and "w_int8" is an int8
// tensor.
func specialsGraph() *graph.Graph {
	g := tinyTransformerGraph()
	big := tensor.New(3, chunkBytes/8)
	specials := []uint32{0x7fc01234, 0x7f800001, 0xffc00001, 0x7f800000, 0xff800000, 0x80000000, 0, 1, 0x807fffff}
	for i := range big.Data() {
		bits := uint32(i) * 2654435761
		if i < len(specials) {
			bits = specials[i]
		}
		big.Data()[i] = math.Float32frombits(bits)
	}
	g.AddWeight("w_chunks", big)
	g.AddWeight("w_empty", tensor.New(0, 3))
	q := tensor.NewInt8(tensor.QuantParams{Scale: 0.25}, 1000)
	for i := range q.Int8Data() {
		q.Int8Data()[i] = int8(i * 7)
	}
	g.AddWeight("w_int8", q)
	return g
}

// corruptModel is specialsGraph's file, cut or patched where a tensor is
// decoded; every one must fail to load, with a wrapped io.EOF or
// io.ErrUnexpectedEOF where it was cut.
type corruptModel struct {
	name string
	data []byte
	cut  bool
}

// corruptModels returns specialsGraph's file and the corrupt variants.
func corruptModels(t testing.TB) ([]byte, []corruptModel) {
	var buf bytes.Buffer
	if err := Save(specialsGraph(), &buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// header returns where a weight's record continues after its name: the
	// dtype, then the rank and the dims.
	header := func(name string) int {
		i := bytes.Index(valid, append(binary.LittleEndian.AppendUint32(nil, uint32(len(name))), name...))
		if i < 0 {
			t.Fatalf("weight %q not in the saved file", name)
		}
		return i + 4 + len(name)
	}
	chunks := header("w_chunks") + 4 + 4 + 2*4 // rank-2 shape
	empty := header("w_empty") + 4 + 4 + 2*4
	int8s := header("w_int8") + 4 + 4 + 1*4 + 4 // rank 1, then the scale
	patched := func(at int, v uint32) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(b[at:], v)
		return b
	}
	return valid, []corruptModel{
		{"truncated inside a tensor", valid[:chunks+1001], true},
		{"truncated at a chunk boundary", valid[:chunks+chunkBytes], true},
		{"oversized shape", patched(header("w_chunks")+8, 1<<29), false},
		{"negative shape", patched(header("w_chunks")+8, math.MaxUint32), false},
		{"zero-element tensor, then cut", valid[:empty], true},
		{"int8 tensor cut short", valid[:int8s+500], true},
	}
}

// TestChunkedDecodeKeepsEveryBit: every float32 bit pattern and int8 byte of
// specialsGraph comes back from the bulk decode and from the per-value
// oracle exactly as saved, the zero-element tensor included.
func TestChunkedDecodeKeepsEveryBit(t *testing.T) {
	valid, _ := corruptModels(t)
	want := weightHashes(specialsGraph())
	for _, f32s := range []func(*reader, []float32){(*reader).f32s, f32sPerValue} {
		g, err := load(bytes.NewReader(valid), f32s)
		if err != nil {
			t.Fatal(err)
		}
		if got := weightHashes(g); !maps.Equal(got, want) {
			t.Fatal("weights differ from the saved ones")
		}
	}
}

// TestLoadRejectsCorruptTensors: each FuzzLoad seed of a damaged tensor fails
// with an error, never a panic; a cut one with the reader's io.EOF or
// io.ErrUnexpectedEOF, wrapped with the weight's name.
func TestLoadRejectsCorruptTensors(t *testing.T) {
	_, bad := corruptModels(t)
	for _, c := range bad {
		_, err := Load(bytes.NewReader(c.data))
		switch {
		case err == nil:
			t.Errorf("%s: loaded", c.name)
		case c.cut && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF):
			t.Errorf("%s: %v, want a wrapped io.EOF or io.ErrUnexpectedEOF", c.name, err)
		}
	}
}

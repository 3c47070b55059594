package kernels

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/models"
	"mnn/internal/tensor"
)

// quantizeWeightChannelsRef is quantizeWeightChannels as it was before the
// vector scan and quantizer: a max-abs loop with a branch per weight, then
// the divide, RoundToEven and clamp per weight, NaN quantized to 0 (which
// amd64's conversion gave already). It is the oracle of both paths.
func quantizeWeightChannelsRef(w []float32, channels, per int) (q []int8, scales []float32) {
	q = make([]int8, channels*per)
	scales = make([]float32, channels)
	for c := 0; c < channels; c++ {
		row := w[c*per : (c+1)*per]
		var m float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		scale := tensor.QuantScale(float64(m))
		scales[c] = scale
		for i, v := range row {
			r := math.RoundToEven(float64(v / scale))
			if r != r {
				r = 0
			}
			if r > 127 {
				r = 127
			}
			if r < -127 {
				r = -127
			}
			q[c*per+i] = int8(r)
		}
	}
	return q, scales
}

// quantizerPaths are the paths quantizeWeightChannels takes on this host:
// the scalar one, and the vector one where the host has AVX2.
func quantizerPaths() []bool {
	if matmul.HaveAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// checkQuantizeWeights fails t unless every path quantizes the
// [channels][per] weight w to the oracle's bytes and scales.
func checkQuantizeWeights(t *testing.T, what string, w []float32, channels, per int) {
	t.Helper()
	wantQ, wantS := quantizeWeightChannelsRef(w, channels, per)
	for _, simd := range quantizerPaths() {
		q, s := quantizeWeightChannels(w, channels, per, simd)
		for c := range wantS {
			if math.Float32bits(s[c]) != math.Float32bits(wantS[c]) {
				t.Fatalf("%s, simd %v: channel %d's scale is %v, want %v", what, simd, c, s[c], wantS[c])
			}
		}
		for i := range wantQ {
			if q[i] != wantQ[i] {
				t.Fatalf("%s, simd %v: weight %d (%v, %#08x) of channel %d quantized to %d, want %d",
					what, simd, i, w[i], math.Float32bits(w[i]), i/per, q[i], wantQ[i])
			}
		}
	}
}

// TestQuantizeWeightsMatchesOracle holds the scalar and the vector weight
// quantizer to the loop they replaced, scales and bytes, on rows of every
// length around the vector blocks (8 floats for the scan, 32 for the
// quantizer): NaNs with payloads, ±Inf, −0, denormals and random bit
// patterns; rows of zeros; one-element rows; the maximum in the tail the
// vector scan leaves; weights that land on .5 ties and on ±127.5.
func TestQuantizeWeightsMatchesOracle(t *testing.T) {
	r := tensor.NewRNG(45)
	specials := []float32{math.Float32frombits(0x7fc01234), math.Float32frombits(0xffa00001), math.Float32frombits(0x7f800001),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 1e-41, -1e-45, 1.17549435e-38}
	for _, per := range []int{1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 8*9 + 5} {
		const channels = 6
		w := make([]float32, channels*per)
		for i := range w {
			w[i] = r.Float32()*2 - 1
		}
		checkQuantizeWeights(t, fmt.Sprintf("random, per %d", per), w, channels, per)

		// Channel 0 all zeros, 1 all −0, 2 all NaN; 3 a special in every
		// eighth place; 4 its maximum in the last place, past every whole
		// vector block; 5 random bit patterns.
		for i := range per {
			w[i], w[per+i], w[2*per+i] = 0, float32(math.Copysign(0, -1)), specials[0]
			if i%8 == 3 {
				w[3*per+i] = specials[(i/8)%len(specials)]
			}
			w[4*per+i] = float32(i%5) * 0.1
			w[5*per+i] = math.Float32frombits(uint32(r.Uint64()))
		}
		w[5*per-1] = -9.75
		checkQuantizeWeights(t, fmt.Sprintf("specials, per %d", per), w, channels, per)

		// Ties: with the maximum at 127 the scale is 1, so k + 0.5 rounds to
		// even, and ±127.5 clamps.
		for i := range w {
			w[i] = float32(r.Intn(255)-127) + 0.5*float32(i%2)
			if i%per == 0 {
				w[i] = 127
			}
		}
		w[per-1] = -127.5
		checkQuantizeWeights(t, fmt.Sprintf("ties, per %d", per), w, channels, per)
	}
}

// TestQuantizeZooWeightsMatchesOracle holds both weight quantizer paths to
// the oracle on every convolution and InnerProduct weight of the zoo, per
// output channel as PrepareQuantConv and PrepareQuantInnerProduct quantize
// them, up to 256 channels at a time. -short keeps mobilenet-v1 and
// squeezenet-v1.1.
func TestQuantizeZooWeightsMatchesOracle(t *testing.T) {
	for _, name := range models.Names() {
		if testing.Short() && name != "mobilenet-v1" && name != "squeezenet-v1.1" {
			continue
		}
		g, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range g.Nodes {
			if nd.Op != graph.OpConv2D && nd.Op != graph.OpInnerProduct {
				continue
			}
			w := g.Weights[nd.WeightNames[0]]
			channels := w.Dim(0)
			per := len(w.Data()) / channels
			for c0 := 0; c0 < channels; c0 += 256 {
				c1 := min(c0+256, channels)
				checkQuantizeWeights(t, fmt.Sprintf("%s %s, channels %d…", name, nd.Name, c0), w.Data()[c0*per:c1*per], c1-c0, per)
			}
		}
		runtime.GC() // g's weights are dead
	}
}

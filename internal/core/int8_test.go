package core

import (
	"slices"
	"strings"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/models"
)

// int8FP32Convs is the decision table of Int8ConvSupported at the zoo's
// declared input shapes: per int8 level and network, the group-1
// convolutions an int8 engine keeps on their fp32 scheme (every other one
// runs on the int8 tap GEMM; a network not listed runs all of them int8).
// Reading it:
//
//   - amx is avx512vnni's entry, copied: its rates are avx512vnni's until
//     the rate probe (ROADMAP item 3) measures its own.
//   - avx512vnni runs all eight squeezenet expand3x3 Winograd layers in int8
//     (2.6× to 1.04× faster than F6/F4 Winograd, BenchmarkQuantVsFloatConv3x3),
//     and the 3-channel stems too (1.2–1.8× faster than sliding; vgg-16's
//     conv1_1 5× faster than its F6 Winograd). It keeps fire2_squeeze and
//     fire3_squeeze (64/128 → 16 at 55²) in fp32: one output panel against a
//     quantize pass over their whole input, 1.12–1.19× slower in int8.
//   - avx2's VPMADDWD kernel beats the fp32 GEMM by less than a third, so the
//     Winograd layers, the ic = 3 sliding stems and the narrow squeezes stay
//     fp32; stride-2 3×3 layers, whose fp32 sliding route is the slowest GEMM
//     class, and vgg-16's conv1_1 go int8.
//   - portable's Go int8 loop runs 2.3× the Go fp32 GEMM's rate, but its
//     quantize pass is costly (0.16 activations/ns): the 3-channel stems, the
//     stride-2 layers and squeezenet's smaller Winograd layers go int8, deep
//     Winograd stays fp32.
var int8FP32Convs = map[string]map[string][]string{
	"amx": {
		"squeezenet-v1.1": {"fire2_squeeze", "fire3_squeeze"},
	},
	"avx512vnni": {
		"squeezenet-v1.1": {"fire2_squeeze", "fire3_squeeze"},
	},
	"avx2": {
		"squeezenet-v1.1": {"conv1", "fire2_squeeze", "fire2_expand3x3", "fire3_squeeze", "fire3_expand3x3", "fire4_squeeze",
			"fire4_expand3x3", "fire5_squeeze", "fire5_expand3x3", "fire6_expand3x3", "fire7_expand3x3", "fire8_expand3x3",
			"fire9_expand3x3"},
		"resnet-18": {"conv1", "layer1_0_conv1", "layer1_0_conv2", "layer1_1_conv1", "layer1_1_conv2", "layer2_0_conv2",
			"layer2_0_down", "layer2_1_conv1", "layer2_1_conv2", "layer3_0_conv2", "layer3_1_conv1", "layer3_1_conv2",
			"layer4_0_conv2", "layer4_1_conv1", "layer4_1_conv2"},
		"vgg-16": {"conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2", "conv3_3", "conv4_1", "conv4_2", "conv4_3",
			"conv5_1", "conv5_2", "conv5_3"},
		"inception-v3": {"conv1", "conv2", "conv3", "conv5", "mixed0_5x5", "mixed0_3x3a", "mixed0_3x3b",
			"mixed0_pool_proj", "mixed1_5x5", "mixed1_3x3a", "mixed1_3x3b", "mixed2_5x5", "mixed2_3x3a", "mixed2_3x3b",
			"mixed3_dbl_a", "mixed4_1x7", "mixed4_7x1", "mixed4_dbl_7x1a", "mixed4_dbl_1x7a", "mixed4_dbl_7x1b",
			"mixed4_dbl_1x7b", "mixed5_1x7", "mixed5_7x1", "mixed5_dbl_7x1a", "mixed5_dbl_1x7a", "mixed5_dbl_7x1b",
			"mixed5_dbl_1x7b", "mixed6_1x7", "mixed6_7x1", "mixed6_dbl_7x1a", "mixed6_dbl_1x7a", "mixed6_dbl_7x1b",
			"mixed6_dbl_1x7b", "mixed7_1x7", "mixed7_7x1", "mixed7_dbl_7x1a", "mixed7_dbl_1x7a", "mixed7_dbl_7x1b",
			"mixed7_dbl_1x7b", "mixed8_1x7", "mixed8_7x1", "mixed9_1x3", "mixed9_3x1", "mixed9_dbl_3x3", "mixed9_dbl_1x3",
			"mixed9_dbl_3x1", "mixed10_1x3", "mixed10_3x1", "mixed10_dbl_3x3", "mixed10_dbl_1x3", "mixed10_dbl_3x1"},
	},
	"portable": {
		"squeezenet-v1.1": {"fire4_expand3x3", "fire5_expand3x3"},
		"resnet-18": {"layer1_0_conv1", "layer1_0_conv2", "layer1_1_conv1", "layer1_1_conv2", "layer2_0_conv2",
			"layer2_1_conv1", "layer2_1_conv2", "layer3_0_conv2", "layer3_1_conv1", "layer3_1_conv2", "layer4_0_conv2",
			"layer4_1_conv1", "layer4_1_conv2"},
		"vgg-16": {"conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2", "conv3_3", "conv4_1", "conv4_2", "conv4_3",
			"conv5_1", "conv5_2", "conv5_3"},
		"inception-v3": {"conv2", "conv3", "conv5", "mixed0_5x5", "mixed0_3x3a", "mixed0_3x3b", "mixed1_5x5",
			"mixed1_3x3a", "mixed1_3x3b", "mixed2_5x5", "mixed2_3x3a", "mixed2_3x3b", "mixed3_dbl_a", "mixed9_dbl_3x3",
			"mixed10_dbl_3x3"},
	},
}

// TestInt8DecisionTable evaluates the int8 routing predicate — no timing —
// over every group-1 convolution of four zoo networks at each int8 level,
// with the heuristic's fp32 decision, and holds the picks to
// int8FP32Convs. Every decision must also be the same at batch 8 as at
// batch 1: the batcher's engine partitions as the unbatched one does.
func TestInt8DecisionTable(t *testing.T) {
	for _, net := range []string{"squeezenet-v1.1", "resnet-18", "vgg-16", "inception-v3"} {
		g, err := models.ByName(net)
		if err != nil {
			t.Fatal(err)
		}
		shapes, err := graph.InferShapes(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		for level, nets := range int8FP32Convs {
			var fp32 []string
			for _, n := range g.Nodes {
				if n.Op != graph.OpConv2D {
					continue
				}
				a := n.Attrs.(*graph.Conv2DAttrs)
				if a.Group > 1 {
					continue
				}
				in := shapes[n.Inputs[0]]
				int8 := Int8ConvSupported(a, in, SelectConvScheme(a, in), level)
				in8 := append([]int{8}, in[1:]...)
				if got := Int8ConvSupported(a, in8, SelectConvScheme(a, in8), level); got != int8 {
					t.Errorf("%s %s %s: int8 %v at batch 8, %v at batch 1", level, net, n.Name, got, int8)
				}
				if !int8 {
					fp32 = append(fp32, n.Name)
				}
			}
			if want := nets[net]; !slices.Equal(fp32, want) {
				t.Errorf("%s %s keeps in fp32:\n  %s\nwant\n  %s", level, net, strings.Join(fp32, " "), strings.Join(want, " "))
			}
		}
	}
}

// TestInt8ConvSupportedRefuses: convolutions the int8 tap GEMM cannot run
// (grouped, depthwise) and levels the rate table does not know stay fp32,
// however cheap int8 would be.
func TestInt8ConvSupportedRefuses(t *testing.T) {
	big := convAttrs(1, 512, 512)
	in := []int{1, 512, 28, 28}
	if !Int8ConvSupported(big, in, SelectConvScheme(big, in), "avx512vnni") {
		t.Fatal("a 512→512 1×1 convolution at 28² must run int8 on avx512vnni")
	}
	if Int8ConvSupported(big, in, SelectConvScheme(big, in), "sse4") {
		t.Error("an unknown int8 level must keep fp32")
	}
	grouped := convAttrs(3, 512, 512)
	grouped.Group = 2
	dw := convAttrs(3, 512, 512)
	dw.Group = 512
	for _, a := range []*graph.Conv2DAttrs{grouped, dw} {
		for level := range int8RateTable {
			if Int8ConvSupported(a, in, SelectConvScheme(a, in), level) {
				t.Errorf("group %d convolution routed int8 on %s", a.Group, level)
			}
		}
	}
}

package optimizer

import (
	"testing"

	"mnn/internal/graph"
	"mnn/internal/models"
)

func TestPlanInt8MobileNet(t *testing.T) {
	g := models.MobileNetV1()
	plan, err := PlanInt8(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// MobileNet-v1: 13 pointwise convs + the FC run int8; the stem conv
	// (sliding scheme), the 13 depthwise convs, pool and softmax stay fp32.
	if plan.Int8Nodes != 14 {
		t.Errorf("int8 nodes = %d, want 14", plan.Int8Nodes)
	}
	for _, name := range []string{"conv2_pw", "fc7"} {
		if !plan.Int8[name] {
			t.Errorf("node %q missing from int8 plan", name)
		}
	}
	for _, name := range []string{"conv1", "conv2_dw"} {
		if plan.Int8[name] {
			t.Errorf("node %q (sliding or depthwise scheme) must stay fp32", name)
		}
	}
	if plan.QuantBoundaries == 0 || plan.DequantBoundaries == 0 {
		t.Errorf("boundaries: %d quant / %d dequant, want both > 0",
			plan.QuantBoundaries, plan.DequantBoundaries)
	}
	// No calibration: nothing carries a fixed scale yet.
	if plan.Calibrated != 0 {
		t.Errorf("calibrated = %d on an uncalibrated graph", plan.Calibrated)
	}
	g.ActScales = map[string]float32{"conv2_dw": 0.05}
	plan2, err := PlanInt8(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// conv2_pw consumes conv2_dw's output; it is now calibrated.
	if plan2.Calibrated != 1 {
		t.Errorf("calibrated = %d after one scale, want 1", plan2.Calibrated)
	}
}

func TestNonNegActsDataflow(t *testing.T) {
	g := models.MobileNetV1()
	plan, err := PlanInt8(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every ReLU6-fused conv output is non-negative; the raw graph input and
	// the FC logits are not provable.
	if !plan.NonNegActs["conv1"] || !plan.NonNegActs["conv2_dw"] {
		t.Error("fused-ReLU6 conv outputs must be proven non-negative")
	}
	if plan.NonNegActs["data"] {
		t.Error("graph input must not be assumed non-negative")
	}
	if plan.NonNegActs["fc7"] {
		t.Error("un-activated FC output must not be assumed non-negative")
	}
	// Softmax output is provably non-negative.
	if !plan.NonNegActs["prob"] {
		t.Error("softmax output is non-negative")
	}
	// Pooling preserves non-negativity.
	if !plan.NonNegActs["pool6"] {
		t.Error("global pool of a non-negative tensor is non-negative")
	}
}

func TestPlanInt8RejectsInvalidGraph(t *testing.T) {
	g := graph.New("broken")
	g.AddNode(&graph.Node{Name: "c", Op: graph.OpConv2D, Inputs: []string{"missing"},
		Outputs: []string{"out"}, Attrs: &graph.Conv2DAttrs{KernelH: 1, KernelW: 1, OutputCount: 1}})
	if _, err := PlanInt8(g, nil); err == nil {
		t.Fatal("PlanInt8 on a graph without shapes must error")
	}
}

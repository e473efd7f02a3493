package hetero

import (
	"maps"
	"sync"
)

// APIProfile describes one heterogeneous API: which devices it targets,
// which idioms it implements, and how efficiently (fraction of the device's
// peak it attains). The profiles reproduce the availability matrix and the
// relative standings of the paper's Table 3:
//
//   - MKL is the best dense/sparse library on the CPU;
//   - cuBLAS/cuSPARSE dominate on the Nvidia GPU;
//   - clBLAS beats CLBlast on the iGPU; clSPARSE targets the iGPU;
//   - Halide excels at CPU stencils (vectorization) but, as in the paper,
//     "failed to generate valid GPU code" — CPU only;
//   - Lift targets everything, strongest on GPU stencils and reductions;
//   - libSPMV is the custom library for Parboil's unusual sparse format.
type APIProfile struct {
	Name string
	// Eff maps (device, api-kind) to an efficiency in (0, 1]; a missing
	// entry means the API does not support that combination.
	Eff map[DeviceKind]map[string]float64
	// NeedsStraightLineKernel marks APIs that cannot express extracted
	// kernels containing control flow. The paper notes stencils involving
	// control flow "are not easily expressible in Halide" — which is why
	// Table 3 has no Halide entry for lbm.
	NeedsStraightLineKernel bool
}

// stencilKinds expands a stencil efficiency to all three depths.
func stencil(e float64) map[string]float64 {
	return map[string]float64{"stencil1": e, "stencil2": e, "stencil3": e}
}

func merged(ms ...map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// APIs returns every targeted API profile, as a fresh copy the caller may
// modify.
func APIs() []APIProfile {
	out := make([]APIProfile, len(apiTable()))
	for i, a := range apiTable() {
		out[i] = a.clone()
	}
	return out
}

// apiTable is the profile table, built once. Selection and timing loops
// read it on every plan; nothing may modify it.
var apiTable = sync.OnceValue(profiles)

// clone copies the profile's efficiency maps.
func (a APIProfile) clone() APIProfile {
	a.Eff = maps.Clone(a.Eff)
	for dev, kinds := range a.Eff {
		a.Eff[dev] = maps.Clone(kinds)
	}
	return a
}

func profiles() []APIProfile {
	return []APIProfile{
		{
			Name: "mkl",
			Eff: map[DeviceKind]map[string]float64{
				CPU: {"gemm": 0.85, "spmv": 0.45},
			},
		},
		{
			Name: "cublas",
			Eff: map[DeviceKind]map[string]float64{
				GPU: {"gemm": 0.90},
			},
		},
		{
			Name: "cusparse",
			Eff: map[DeviceKind]map[string]float64{
				GPU: {"spmv": 0.85},
			},
		},
		{
			Name: "clblas",
			Eff: map[DeviceKind]map[string]float64{
				IGPU: {"gemm": 0.55},
				GPU:  {"gemm": 0.40},
			},
		},
		{
			Name: "clblast",
			Eff: map[DeviceKind]map[string]float64{
				IGPU: {"gemm": 0.42},
				GPU:  {"gemm": 0.31},
			},
		},
		{
			Name: "clsparse",
			Eff: map[DeviceKind]map[string]float64{
				IGPU: {"spmv": 0.60},
			},
		},
		{
			// The custom library the paper wrote for Parboil's spmv, whose
			// JDS storage none of the vendor CSR libraries accept.
			Name: "libspmv",
			Eff: map[DeviceKind]map[string]float64{
				CPU:  {"spmvjds": 0.30},
				IGPU: {"spmvjds": 0.45},
				GPU:  {"spmvjds": 0.55},
			},
		},
		{
			Name:                    "halide",
			NeedsStraightLineKernel: true,
			Eff: map[DeviceKind]map[string]float64{
				// CPU only: the paper's Halide version failed to produce
				// valid GPU code for the evaluated benchmarks.
				CPU: merged(stencil(0.80), map[string]float64{
					"histogram": 0.70, "reduction": 0.55,
				}),
			},
		},
		{
			Name: "lift",
			Eff: map[DeviceKind]map[string]float64{
				// The CPU histogram is atomic-contention bound and CPU stencils
				// lack Halide's vectorization: the paper's own Table 3 shows
				// Lift's CPU histo slower than sequential C and its CPU
				// stencils at parity.
				CPU: merged(stencil(0.10), map[string]float64{
					"reduction": 0.55, "histogram": 0.06, "gemm": 0.20,
					"map": 0.50,
				}),
				IGPU: merged(stencil(0.60), map[string]float64{
					"reduction": 0.70, "histogram": 0.65, "gemm": 0.45,
					"map": 0.65,
				}),
				GPU: merged(stencil(0.85), map[string]float64{
					"reduction": 0.85, "histogram": 0.70, "gemm": 0.60,
					"map": 0.85,
				}),
			},
		},
	}
}

// APIByName returns a copy of the profile for name, or nil.
func APIByName(name string) *APIProfile {
	for _, a := range apiTable() {
		if a.Name == name {
			p := a.clone()
			return &p
		}
	}
	return nil
}

// Supports reports whether the API implements the idiom kind on the device,
// returning the efficiency.
func (a *APIProfile) Supports(dev DeviceKind, apiKind string) (float64, bool) {
	m, ok := a.Eff[dev]
	if !ok {
		return 0, false
	}
	e, ok := m[apiKind]
	return e, ok
}

// CandidateAPIs lists APIs that implement the given idiom kind on a device.
func CandidateAPIs(dev DeviceKind, apiKind string) []string {
	var out []string
	for _, a := range apiTable() {
		if _, ok := a.Supports(dev, apiKind); ok {
			out = append(out, a.Name)
		}
	}
	return out
}

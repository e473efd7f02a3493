package hetero

import (
	"fmt"
	"strings"

	"repro/internal/interp"
)

// RunCost summarizes one transformed-program execution for timing.
type RunCost struct {
	// Host is the op count outside API calls.
	Host interp.Counts
	// Calls are the per-API-call records.
	Calls []CallRecord
}

// SplitCosts separates a machine's total counts into host work and API work
// using the ledger recorded during execution.
func SplitCosts(total interp.Counts, ledger *Ledger) RunCost {
	host := total
	for _, c := range ledger.Calls {
		deltaSub(&host, c.Counts)
	}
	return RunCost{Host: host, Calls: ledger.Calls}
}

// TimingOptions configure the end-to-end model.
type TimingOptions struct {
	// LazyCopy enables the paper's red-bar runtime optimization: buffers
	// stay resident on the device across consecutive API calls, so each
	// distinct buffer is transferred once per program instead of per call.
	LazyCopy bool
	// WorkScale linearly extrapolates the measured operation mix and
	// transfer volumes to class-size inputs (the paper evaluated NAS class
	// inputs and full Parboil datasets, far beyond what an interpreter can
	// execute; the arithmetic-intensity ratios are input-size invariant for
	// these kernels, so who-wins and crossover structure is preserved).
	// Zero means 1 (no scaling).
	WorkScale float64
}

func (o TimingOptions) scale() float64 {
	if o.WorkScale <= 0 {
		return 1
	}
	return o.WorkScale
}

// ScaleCounts multiplies an operation mix by k.
func ScaleCounts(c interp.Counts, k float64) interp.Counts {
	return interp.Counts{
		Flops:      int64(float64(c.Flops) * k),
		MathOps:    int64(float64(c.MathOps) * k),
		IntOps:     int64(float64(c.IntOps) * k),
		Loads:      int64(float64(c.Loads) * k),
		Stores:     int64(float64(c.Stores) * k),
		LoadBytes:  int64(float64(c.LoadBytes) * k),
		StoreBytes: int64(float64(c.StoreBytes) * k),
		Branches:   int64(float64(c.Branches) * k),
		Calls:      int64(float64(c.Calls) * k),
		Steps:      int64(float64(c.Steps) * k),
	}
}

// callSupported reports whether the API can take the call on the device.
// distinctStencils is the number of distinct stencil kernels in the whole
// run: single-stage APIs (Halide in our integration, matching the paper's
// Halide failures on MG and lbm) cannot take multi-stage stencil pipelines.
func callSupported(api *APIProfile, dev DeviceKind, call *CallRecord, distinctStencils int) (float64, bool) {
	eff, ok := api.Supports(dev, call.API)
	if !ok {
		return 0, false
	}
	if api.NeedsStraightLineKernel && call.KernelHasBranch {
		return 0, false
	}
	if api.NeedsStraightLineKernel && distinctStencils > 1 && strings.HasPrefix(call.API, "stencil") {
		return 0, false
	}
	return eff, true
}

// DistinctStencilKernels counts the distinct outlined stencil kernels.
func DistinctStencilKernels(rc RunCost) int {
	seen := map[string]bool{}
	for i := range rc.Calls {
		if strings.HasPrefix(rc.Calls[i].API, "stencil") {
			seen[rc.Calls[i].Extern] = true
		}
	}
	return len(seen)
}

// bestEffFor finds the best efficiency any API offers for the call on the
// device (the per-idiom fallback when the primary API lacks a kind).
func bestEffFor(dev DeviceKind, call *CallRecord, distinctStencils int) (float64, bool) {
	best, found := 0.0, false
	table := apiTable()
	for i := range table {
		if eff, ok := callSupported(&table[i], dev, call, distinctStencils); ok && eff > best {
			best, found = eff, true
		}
	}
	return best, found
}

// DominantCall returns the single heaviest API call — the benchmark's
// headline idiom instance (the CSR SpMV for CG, the GEMM for sgemm, the
// collision stencil for lbm, ...).
func DominantCall(rc RunCost) *CallRecord {
	var best *CallRecord
	bestW := -1.0
	for i := range rc.Calls {
		w := DeviceByKind(CPU).HostSeconds(rc.Calls[i].Counts)
		if w > bestW {
			best, bestW = &rc.Calls[i], w
		}
	}
	return best
}

// Estimate computes modelled wall-clock seconds for the run on the device
// with `api` as the primary API. The paper maps every detected idiom to its
// own API call; a Table 3 column therefore names the API serving the
// benchmark's dominant idiom, while remaining idioms use the best available
// implementation on the same device (or stay on the host when none exists).
// It returns an error when the primary API does not implement the dominant
// idiom kind on the device.
func Estimate(rc RunCost, dev Device, api *APIProfile, opts TimingOptions) (float64, error) {
	k := opts.scale()
	host := DeviceByKind(CPU).HostSeconds(ScaleCounts(rc.Host, k))
	total := host

	dominant := DominantCall(rc)
	dominantServed := false
	distinctStencils := DistinctStencilKernels(rc)

	seen := map[*interp.Buffer]bool{}
	for i := range rc.Calls {
		call := &rc.Calls[i]
		eff, ok := callSupported(api, dev.Kind, call, distinctStencils)
		if ok && dominant != nil && call.API == dominant.API && call.KernelHasBranch == dominant.KernelHasBranch {
			dominantServed = true
		}
		if !ok {
			// Per-idiom fallback: best other API on this device, else host.
			if fb, found := bestEffFor(dev.Kind, call, distinctStencils); found {
				eff = fb
			} else {
				total += DeviceByKind(CPU).HostSeconds(ScaleCounts(call.Counts, k))
				continue
			}
		}
		total += dev.KernelSeconds(ScaleCounts(call.Counts, k), eff)
		for _, b := range call.Buffers {
			if opts.LazyCopy && seen[b] {
				continue
			}
			seen[b] = true
			total += dev.TransferSeconds(int64(float64(len(b.Data)) * k))
		}
	}
	if !dominantServed {
		kind := "any idiom"
		if dominant != nil {
			kind = dominant.API
		}
		return 0, fmt.Errorf("hetero: %s does not implement %s on %s", api.Name, kind, dev.Kind)
	}
	return total, nil
}

// SequentialSeconds models the untransformed sequential run.
func SequentialSeconds(total interp.Counts) float64 {
	return DeviceByKind(CPU).HostSeconds(total)
}

// SequentialSecondsScaled models the sequential run at a work scale.
func SequentialSecondsScaled(total interp.Counts, k float64) float64 {
	return DeviceByKind(CPU).HostSeconds(ScaleCounts(total, k))
}

// BestChoice is the outcome of trying every applicable API on a device
// (the paper: "we just try all applicable libraries and DSLs and pick the
// best executing code").
type BestChoice struct {
	API     string
	Seconds float64
}

// BestOnDevice tries every API on dev and returns the fastest, or ok=false
// when none serves the dominant idiom.
func BestOnDevice(rc RunCost, dev Device, opts TimingOptions) (BestChoice, bool) {
	best := BestChoice{}
	found := false
	table := apiTable()
	for i := range table {
		t, err := Estimate(rc, dev, &table[i], opts)
		if err != nil {
			continue
		}
		if !found || t < best.Seconds {
			best = BestChoice{API: table[i].Name, Seconds: t}
			found = true
		}
	}
	return best, found
}

// AllChoices evaluates every applicable API on the device, for Table 3.
func AllChoices(rc RunCost, dev Device, opts TimingOptions) []BestChoice {
	var out []BestChoice
	table := apiTable()
	for i := range table {
		t, err := Estimate(rc, dev, &table[i], opts)
		if err != nil {
			continue
		}
		out = append(out, BestChoice{API: table[i].Name, Seconds: t})
	}
	return out
}

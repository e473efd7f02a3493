package hetero

import (
	"cmp"
	"slices"
)

// RankedAPI is one API choice for an idiom kind on one device, with the
// profile efficiency and the resulting effective throughput — the static
// Table 3 style ranking the match surface serves before any execution
// happens (the dynamic counterpart, Estimate/BestOnDevice, needs measured
// operation counts from a run).
type RankedAPI struct {
	API string
	// Efficiency is the profile's fraction-of-peak for (device, kind).
	Efficiency float64
	// EffectiveGFLOPS is Efficiency × the device's kernel throughput — the
	// cross-device comparison score (0.85 of a Titan X beats 0.85 of a
	// four-core CPU).
	EffectiveGFLOPS float64
}

// RankOnDevice lists every API implementing the idiom kind on the device,
// best first (efficiency descending, name ascending on ties — deterministic
// for wire encoding). branchyKernel excludes NeedsStraightLineKernel APIs:
// a kernel containing control flow cannot be expressed in them (the paper's
// Halide restriction), so they must not be ranked or selected for it.
func RankOnDevice(dev DeviceKind, kind string, branchyKernel bool) []RankedAPI {
	d := DeviceByKind(dev)
	var out []RankedAPI
	for _, a := range apiTable() {
		if a.NeedsStraightLineKernel && branchyKernel {
			continue
		}
		if eff, ok := a.Supports(dev, kind); ok {
			out = append(out, RankedAPI{
				API:             a.Name,
				Efficiency:      eff,
				EffectiveGFLOPS: eff * d.ComputeGFLOPS,
			})
		}
	}
	slices.SortFunc(out, func(x, y RankedAPI) int {
		if c := cmp.Compare(y.Efficiency, x.Efficiency); c != 0 {
			return c
		}
		return cmp.Compare(x.API, y.API)
	})
	return out
}

// SelectBackend picks the API serving an idiom kind: the best-ranked API on
// the target device, or — with no target — the best effective throughput
// across all devices (the paper's "try all applicable libraries and DSLs
// and pick the best", statically). branchyKernel propagates the
// straight-line restriction as in RankOnDevice. ok is false when no
// profiled API implements the kind (custom idioms without an offload
// model, or every candidate excluded).
func SelectBackend(kind string, target DeviceKind, anyDevice, branchyKernel bool) (api string, dev DeviceKind, ok bool) {
	if kind == "" {
		return "", 0, false
	}
	if !anyDevice {
		ranked := RankOnDevice(target, kind, branchyKernel)
		if len(ranked) == 0 {
			return "", 0, false
		}
		return ranked[0].API, target, true
	}
	best := RankedAPI{}
	for _, d := range Devices() {
		ranked := RankOnDevice(d.Kind, kind, branchyKernel)
		if len(ranked) == 0 {
			continue
		}
		if !ok || ranked[0].EffectiveGFLOPS > best.EffectiveGFLOPS {
			best, dev, ok = ranked[0], d.Kind, true
		}
	}
	return best.API, dev, ok
}

// DeviceKindByName resolves a wire device name ("CPU", "iGPU", "GPU") as
// rendered by DeviceKind.String.
func DeviceKindByName(name string) (DeviceKind, bool) {
	for _, d := range Devices() {
		if d.Kind.String() == name {
			return d.Kind, true
		}
	}
	return 0, false
}

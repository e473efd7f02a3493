package hetero

import (
	"repro/internal/interp"
)

// DeviceKind enumerates the paper's three evaluation platforms.
type DeviceKind int

// Device kinds.
const (
	CPU DeviceKind = iota
	IGPU
	GPU
)

// String names the device kind like the paper's figures.
func (k DeviceKind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case IGPU:
		return "iGPU"
	default:
		return "GPU"
	}
}

// Device is an analytic model of one platform: a roofline (compute rate vs
// memory bandwidth) plus host-device transfer characteristics. The models
// are calibrated to the published specifications of the paper's hardware —
// this is the documented substitution for the machines we do not have.
type Device struct {
	Kind DeviceKind
	Name string
	// SeqGFLOPS is the effective single-thread scalar rate used for host
	// (sequential) execution.
	SeqGFLOPS float64
	// ComputeGFLOPS is the full-device throughput available to kernels.
	ComputeGFLOPS float64
	// MemBWGBs is device memory bandwidth.
	MemBWGBs float64
	// TransferGBs is host<->device copy bandwidth (PCIe for the external
	// GPU, shared-memory mapping for the iGPU, free for the CPU).
	TransferGBs float64
	// LaunchUs is per-kernel launch overhead in microseconds.
	LaunchUs float64
}

// Devices returns the three platform models of the paper's §7:
// an AMD A10-7850K multicore CPU, its integrated Radeon R7 GPU, and an
// Nvidia GTX Titan X external GPU.
func Devices() []Device {
	return []Device{
		{
			Kind: CPU, Name: "AMD A10-7850K (4 cores)",
			SeqGFLOPS: 3.2, ComputeGFLOPS: 55, MemBWGBs: 21,
			TransferGBs: 0, // host memory: no transfer cost
			LaunchUs:    2,
		},
		{
			Kind: IGPU, Name: "Radeon R7 (integrated)",
			SeqGFLOPS: 3.2, ComputeGFLOPS: 700, MemBWGBs: 21,
			TransferGBs: 18, // same-die mapping, cheap but not free
			LaunchUs:    25,
		},
		{
			Kind: GPU, Name: "Nvidia GTX Titan X",
			SeqGFLOPS: 3.2, ComputeGFLOPS: 6100, MemBWGBs: 336,
			TransferGBs: 6, // PCIe 3.0 effective
			LaunchUs:    12,
		},
	}
}

// DeviceByKind returns the model for a kind.
func DeviceByKind(k DeviceKind) Device {
	for _, d := range Devices() {
		if d.Kind == k {
			return d
		}
	}
	return Devices()[0]
}

// workFlops folds an operation count into flop-equivalents: transcendental
// math ops cost several flops, integer/address arithmetic a fraction.
func workFlops(c interp.Counts) float64 {
	return float64(c.Flops) + 8*float64(c.MathOps) + 0.35*float64(c.IntOps)
}

func bytesMoved(c interp.Counts) float64 {
	return float64(c.LoadBytes + c.StoreBytes)
}

// HostSeconds models sequential scalar execution of the counted work: a
// roofline over single-thread compute rate and memory bandwidth.
func (d Device) HostSeconds(c interp.Counts) float64 {
	compute := workFlops(c) / (d.SeqGFLOPS * 1e9)
	memory := bytesMoved(c) / (d.MemBWGBs * 1e9)
	if memory > compute {
		return memory
	}
	return compute
}

// KernelSeconds models one accelerated kernel at the given efficiency:
// launch overhead plus a roofline over effective compute and bandwidth.
func (d Device) KernelSeconds(c interp.Counts, efficiency float64) float64 {
	if efficiency <= 0 {
		efficiency = 1e-6
	}
	compute := workFlops(c) / (d.ComputeGFLOPS * efficiency * 1e9)
	memory := bytesMoved(c) / (d.MemBWGBs * 1e9)
	t := compute
	if memory > t {
		t = memory
	}
	return t + d.LaunchUs*1e-6
}

// TransferSeconds models moving n bytes between host and device.
func (d Device) TransferSeconds(n int64) float64 {
	if d.TransferGBs <= 0 {
		return 0
	}
	return float64(n) / (d.TransferGBs * 1e9)
}

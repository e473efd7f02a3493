package hetero

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/interp"
	"repro/internal/ir"
)

func TestSplitExtern(t *testing.T) {
	cases := []struct {
		in                   string
		backend, api, kernel string
	}{
		{"cusparse.spmv", "cusparse", "spmv", ""},
		{"lift.reduction#sum_kernel", "lift", "reduction", "sum_kernel"},
		{"halide.stencil2#jacobi_kernel", "halide", "stencil2", "jacobi_kernel"},
		{"plain", "", "plain", ""},
	}
	for _, c := range cases {
		b, a, k := SplitExtern(c.in)
		if b != c.backend || a != c.api || k != c.kernel {
			t.Errorf("SplitExtern(%q) = %q,%q,%q", c.in, b, a, k)
		}
	}
}

func TestDevices(t *testing.T) {
	devs := Devices()
	if len(devs) != 3 {
		t.Fatalf("devices = %d, want 3 (CPU, iGPU, GPU)", len(devs))
	}
	gpu := DeviceByKind(GPU)
	igpu := DeviceByKind(IGPU)
	cpu := DeviceByKind(CPU)
	if !(gpu.ComputeGFLOPS > igpu.ComputeGFLOPS && igpu.ComputeGFLOPS > cpu.ComputeGFLOPS) {
		t.Error("compute throughput must order CPU < iGPU < GPU")
	}
	if gpu.MemBWGBs <= cpu.MemBWGBs {
		t.Error("external GPU memory bandwidth must exceed the host's")
	}
	if cpu.TransferGBs != 0 {
		t.Error("CPU needs no host-device transfers")
	}
	if igpu.TransferGBs <= gpu.TransferGBs {
		t.Error("integrated GPU transfers must be cheaper than PCIe")
	}
}

func TestDeviceKindString(t *testing.T) {
	if CPU.String() != "CPU" || IGPU.String() != "iGPU" || GPU.String() != "GPU" {
		t.Error("device kind names")
	}
}

// Property: HostSeconds is monotone in the operation counts.
func TestHostSecondsMonotone(t *testing.T) {
	cpu := DeviceByKind(CPU)
	f := func(flops, bytes uint32) bool {
		a := interp.Counts{Flops: int64(flops), LoadBytes: int64(bytes)}
		b := interp.Counts{Flops: int64(flops) * 2, LoadBytes: int64(bytes) * 2}
		return cpu.HostSeconds(b) >= cpu.HostSeconds(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ScaleCounts by k then HostSeconds equals k times the original
// (within integer truncation slack).
func TestScaleCountsLinear(t *testing.T) {
	cpu := DeviceByKind(CPU)
	f := func(flops, bytes uint16) bool {
		c := interp.Counts{Flops: int64(flops), LoadBytes: int64(bytes)}
		t1 := cpu.HostSeconds(c)
		t4 := cpu.HostSeconds(ScaleCounts(c, 4))
		return t4 >= 3.99*t1 && t4 <= 4.01*t1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKernelSecondsLaunchOverhead(t *testing.T) {
	gpu := DeviceByKind(GPU)
	empty := interp.Counts{}
	if got := gpu.KernelSeconds(empty, 1); got < gpu.LaunchUs*1e-6 {
		t.Errorf("kernel time %g must include launch overhead", got)
	}
}

func TestTransferSeconds(t *testing.T) {
	if DeviceByKind(CPU).TransferSeconds(1<<30) != 0 {
		t.Error("CPU transfers must be free")
	}
	gpu := DeviceByKind(GPU)
	if gpu.TransferSeconds(2<<30) <= gpu.TransferSeconds(1<<30) {
		t.Error("transfer time must grow with bytes")
	}
}

func TestAPIAvailabilityMatrix(t *testing.T) {
	// The Table 3 availability structure.
	cases := []struct {
		api  string
		dev  DeviceKind
		kind string
		want bool
	}{
		{"mkl", CPU, "gemm", true},
		{"mkl", GPU, "gemm", false},
		{"cublas", GPU, "gemm", true},
		{"cublas", CPU, "gemm", false},
		{"cusparse", GPU, "spmv", true},
		{"cusparse", IGPU, "spmv", false},
		{"clsparse", IGPU, "spmv", true},
		{"halide", CPU, "stencil2", true},
		{"halide", GPU, "stencil2", false}, // failed to generate GPU code
		{"lift", GPU, "reduction", true},
		{"lift", CPU, "histogram", true},
		{"libspmv", GPU, "spmvjds", true},
		{"libspmv", GPU, "spmv", false}, // JDS only
	}
	for _, c := range cases {
		a := APIByName(c.api)
		if a == nil {
			t.Fatalf("API %s missing", c.api)
		}
		_, ok := a.Supports(c.dev, c.kind)
		if ok != c.want {
			t.Errorf("%s on %s for %s = %v, want %v", c.api, c.dev, c.kind, ok, c.want)
		}
	}
}

func TestCandidateAPIs(t *testing.T) {
	got := CandidateAPIs(GPU, "gemm")
	joined := strings.Join(got, ",")
	for _, want := range []string{"cublas", "clblas", "clblast", "lift"} {
		if !strings.Contains(joined, want) {
			t.Errorf("GPU gemm candidates %v missing %s", got, want)
		}
	}
	if len(CandidateAPIs(CPU, "spmvjds")) != 1 {
		t.Error("only libspmv handles the JDS format")
	}
}

func TestImplSPMV(t *testing.T) {
	// y = A x for a 2x2 CSR matrix [[1 2],[0 3]].
	a := interp.NewBuffer("a", 3*8)
	a.SetFloat64(0, 1)
	a.SetFloat64(1, 2)
	a.SetFloat64(2, 3)
	rowstr := interp.NewBuffer("rowstr", 3*4)
	rowstr.SetInt32(0, 0)
	rowstr.SetInt32(1, 2)
	rowstr.SetInt32(2, 3)
	colidx := interp.NewBuffer("colidx", 3*4)
	colidx.SetInt32(0, 0)
	colidx.SetInt32(1, 1)
	colidx.SetInt32(2, 1)
	x := interp.NewBuffer("x", 2*8)
	x.SetFloat64(0, 10)
	x.SetFloat64(1, 20)
	y := interp.NewBuffer("y", 2*8)

	m := interp.NewMachine(&ir.Module{})
	_, err := implSPMV(m, []interp.Value{
		interp.IntValue(2),
		interp.PtrValue(interp.Pointer{Buf: a}),
		interp.PtrValue(interp.Pointer{Buf: rowstr}),
		interp.PtrValue(interp.Pointer{Buf: colidx}),
		interp.PtrValue(interp.Pointer{Buf: x}),
		interp.PtrValue(interp.Pointer{Buf: y}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if y.Float64At(0) != 50 || y.Float64At(1) != 60 {
		t.Errorf("y = [%g %g], want [50 60]", y.Float64At(0), y.Float64At(1))
	}
	if m.Counts.Flops == 0 || m.Counts.IntOps == 0 {
		t.Error("spmv must account flops and addressing work")
	}
}

func TestDominantCall(t *testing.T) {
	rc := RunCost{Calls: []CallRecord{
		{API: "reduction", Counts: interp.Counts{Flops: 10}},
		{API: "spmv", Counts: interp.Counts{Flops: 100000}},
		{API: "reduction", Counts: interp.Counts{Flops: 20}},
	}}
	if d := DominantCall(rc); d == nil || d.API != "spmv" {
		t.Errorf("dominant = %+v, want spmv", d)
	}
}

func TestEstimateRejectsWrongAPI(t *testing.T) {
	rc := RunCost{Calls: []CallRecord{
		{API: "spmv", Counts: interp.Counts{Flops: 1000, LoadBytes: 1 << 12}},
	}}
	gpu := DeviceByKind(GPU)
	if _, err := Estimate(rc, gpu, APIByName("cublas"), TimingOptions{}); err == nil {
		t.Error("cublas must not serve an SPMV-dominant run")
	}
	if _, err := Estimate(rc, gpu, APIByName("cusparse"), TimingOptions{}); err != nil {
		t.Errorf("cusparse must serve SPMV: %v", err)
	}
}

func TestLazyCopyReducesTime(t *testing.T) {
	buf := interp.NewBuffer("b", 1<<20)
	rc := RunCost{Calls: []CallRecord{
		{API: "reduction", Counts: interp.Counts{Flops: 1000}, Buffers: []*interp.Buffer{buf}},
		{API: "reduction", Counts: interp.Counts{Flops: 1000}, Buffers: []*interp.Buffer{buf}},
	}}
	gpu := DeviceByKind(GPU)
	lift := APIByName("lift")
	eager, err := Estimate(rc, gpu, lift, TimingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Estimate(rc, gpu, lift, TimingOptions{LazyCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	if lazy >= eager {
		t.Errorf("lazy %g must beat eager %g on repeated buffers", lazy, eager)
	}
}

func TestStraightLineKernelRestriction(t *testing.T) {
	rc := RunCost{Calls: []CallRecord{
		{API: "stencil2", KernelHasBranch: true, Counts: interp.Counts{Flops: 1000}},
	}}
	cpu := DeviceByKind(CPU)
	if _, err := Estimate(rc, cpu, APIByName("halide"), TimingOptions{}); err == nil {
		t.Error("halide must reject control-flow kernels")
	}
	if _, err := Estimate(rc, cpu, APIByName("lift"), TimingOptions{}); err != nil {
		t.Errorf("lift handles control-flow kernels: %v", err)
	}
}

func TestMultiStageStencilRestriction(t *testing.T) {
	// Two distinct stencil kernels (an MG-like resid/psinv pair): halide's
	// single-stage translation cannot take either.
	rc := RunCost{Calls: []CallRecord{
		{API: "stencil3", Extern: "lift.stencil3#resid", Counts: interp.Counts{Flops: 1000}},
		{API: "stencil3", Extern: "lift.stencil3#psinv", Counts: interp.Counts{Flops: 900}},
	}}
	cpu := DeviceByKind(CPU)
	if _, err := Estimate(rc, cpu, APIByName("halide"), TimingOptions{}); err == nil {
		t.Error("halide must reject multi-stage stencil pipelines")
	}
	single := RunCost{Calls: rc.Calls[:1]}
	if _, err := Estimate(single, cpu, APIByName("halide"), TimingOptions{}); err != nil {
		t.Errorf("halide handles a single stencil stage: %v", err)
	}
}

func TestBestOnDevice(t *testing.T) {
	rc := RunCost{Calls: []CallRecord{
		{API: "gemm", Counts: interp.Counts{Flops: 1 << 20, LoadBytes: 1 << 16}},
	}}
	best, ok := BestOnDevice(rc, DeviceByKind(GPU), TimingOptions{})
	if !ok {
		t.Fatal("no API found for GEMM on GPU")
	}
	if best.API != "cublas" {
		t.Errorf("best GPU GEMM = %s, want cublas", best.API)
	}
	best, ok = BestOnDevice(rc, DeviceByKind(CPU), TimingOptions{})
	if !ok || best.API != "mkl" {
		t.Errorf("best CPU GEMM = %v %v, want mkl", best, ok)
	}
}

func TestReferenceModels(t *testing.T) {
	counts := interp.Counts{Flops: 1 << 28, LoadBytes: 1 << 20}
	likeForLike := Reference{Parallelizable: 0.95, AlgorithmicFactor: 1}
	rewrite := Reference{Parallelizable: 0.99, AlgorithmicFactor: 2.5}
	seq := SequentialSeconds(counts)
	if omp := likeForLike.OpenMPSeconds(counts); omp >= seq {
		t.Errorf("OpenMP %g must beat sequential %g on compute-bound work", omp, seq)
	}
	if rewrite.OpenMPSeconds(counts) >= likeForLike.OpenMPSeconds(counts) {
		t.Error("algorithmic rewrites must help")
	}
	memBound := interp.Counts{Flops: 1 << 10, LoadBytes: 1 << 30}
	seqMem := SequentialSeconds(memBound)
	if omp := likeForLike.OpenMPSeconds(memBound); omp < seqMem*0.9 {
		t.Errorf("OpenMP %g cannot beat DRAM bandwidth (seq %g)", omp, seqMem)
	}
}

// TestSelectionAllocations: backend selection runs for every plan, so it
// reads the profile table built once rather than rebuilding every profile
// map per call. What it allocates is its own ranking.
func TestSelectionAllocations(t *testing.T) {
	rank := testing.AllocsPerRun(100, func() { RankOnDevice(GPU, "gemm", false) })
	sel := testing.AllocsPerRun(100, func() { SelectBackend("stencil2", 0, true, true) })
	if rank > 3 || sel > 9 {
		t.Errorf("RankOnDevice allocates %.0f times, SelectBackend %.0f; want at most 3 and 9", rank, sel)
	}
}

// TestAPIsReturnsFreshCopy: a caller may modify what APIs returns without
// changing what selection ranks.
func TestAPIsReturnsFreshCopy(t *testing.T) {
	before := RankOnDevice(CPU, "gemm", false)
	for _, a := range APIs() {
		for _, kinds := range a.Eff {
			clear(kinds)
		}
	}
	APIByName("mkl").Eff[CPU]["gemm"] = 0
	if after := RankOnDevice(CPU, "gemm", false); !reflect.DeepEqual(before, after) {
		t.Errorf("ranking moved after callers modified their copies: %v, then %v", before, after)
	}
}

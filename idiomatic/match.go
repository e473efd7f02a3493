package idiomatic

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/hetero"
	"repro/internal/idioms"
	"repro/internal/idl"
	"repro/internal/ir"
	"repro/internal/transform"
)

// TopSpec declares one idiom of a pack for RegisterPack: the top-level IDL
// constraint plus class/transform-scheme/offload-kind metadata. It is the
// JSON element of POST /v1/idioms.
type TopSpec = idioms.TopSpec

// --- versioned wire model (v1): the full match pipeline ---

// MatchRequest is one v1 end-to-end matching request: detection plus
// transformation plans and backend selection — the paper's whole Figure 1
// flow as one call. It is the JSON body of POST /v1/match and
// /v1/match/stream.
type MatchRequest struct {
	// Name labels the source; echoed back in the result.
	Name string `json:"name"`
	// Source is the C program text to compile, detect and transform.
	Source string `json:"source"`
	// Idioms restricts matching to the named idioms, in precedence order.
	// With Pack empty they resolve against the built-in roster (empty = the
	// paper's default set); with Pack set they subset that pack.
	Idioms []string `json:"idioms,omitempty"`
	// Pack selects a runtime-registered idiom pack instead of the built-in
	// roster. Unknown packs are rejected at intake (HTTP 400).
	Pack string `json:"pack,omitempty"`
	// Target pins backend selection to one device ("CPU", "iGPU", "GPU");
	// empty ranks all three and selects the best effective throughput.
	// Unknown targets are rejected at intake (HTTP 400).
	Target string `json:"target,omitempty"`
	// DeadlineMs, when positive, bounds the request's total latency (same
	// semantics as DetectRequest.DeadlineMs).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Opts shape the response payload. EmitIR emits the post-transformation
	// SSA (the module with idioms replaced by API calls).
	Opts RequestOptions `json:"opts"`
}

// APIChoice is one ranked offload option: an API implementing the idiom's
// kind on a device, with the Table 3 profile efficiency and the effective
// device throughput it buys.
type APIChoice struct {
	API        string  `json:"api"`
	Efficiency float64 `json:"efficiency"`
	// EffectiveGFLOPS is efficiency × device kernel throughput — the
	// cross-device comparison score backend selection maximizes.
	EffectiveGFLOPS float64 `json:"effective_gflops"`
}

// DeviceOffload ranks the APIs serving one idiom kind on one device, best
// first — one Table 3 column, statically.
type DeviceOffload struct {
	Device  string      `json:"device"`
	Choices []APIChoice `json:"choices"`
}

// PlanCall is the wire form of one applied transformation
// (transform.APICall) plus the backend selection that chose its API.
type PlanCall struct {
	// Idiom / Class / Function identify the finding the plan replaces.
	Idiom    string `json:"idiom"`
	Class    string `json:"class"`
	Function string `json:"function"`
	// Extern is the backend-qualified symbol the rewritten code calls
	// (e.g. "cublas.gemm", "lift.reduction#cg_reduction_kernel").
	Extern string `json:"extern,omitempty"`
	// Backend is the selected API (the best choice on Device) and Device the
	// device it was selected for.
	Backend string `json:"backend,omitempty"`
	Device  string `json:"device,omitempty"`
	// Kernel names the outlined DSL kernel function ("" for library calls).
	Kernel string `json:"kernel,omitempty"`
	// Unsound marks replacements static analysis cannot prove safe (sparse
	// aliasing, paper §6.3); RuntimeChecks lists the checks a deployment
	// would insert.
	Unsound       bool     `json:"unsound,omitempty"`
	RuntimeChecks []string `json:"runtime_checks,omitempty"`
	// Rendering is the Figure 6 style call listing.
	Rendering string `json:"rendering,omitempty"`
	// Offload ranks the applicable APIs per device (all three devices, or
	// just the request target), best first. Empty for idioms without an
	// offload kind. Plans share identical rankings: treat it as read-only.
	Offload []DeviceOffload `json:"offload,omitempty"`
	// Err reports a per-instance transformation failure; the call fields are
	// empty when set. Detection findings always survive — a plan that cannot
	// be realized is reported, not hidden.
	Err string `json:"error,omitempty"`
}

// MatchResult is one v1 end-to-end matching outcome: the DetectResult
// payload (same Seq/byte-identity guarantees as /v1/detect) extended with
// transformation plans and backend selection. With Opts.EmitIR the IR field
// carries the post-transformation SSA.
type MatchResult struct {
	DetectResult
	// Pack / PackVersion identify the registry snapshot the request resolved
	// against (empty / 0 for the built-in roster). In-flight requests keep
	// the snapshot they started with even across re-registrations.
	Pack        string `json:"pack,omitempty"`
	PackVersion uint64 `json:"pack_version,omitempty"`
	// Target echoes the requested device pin.
	Target string `json:"target,omitempty"`
	// Plans carry one entry per finding, in finding order.
	Plans []PlanCall `json:"plans"`
}

// matchTarget validates a wire target name. anyDevice reports target == "".
func matchTarget(target string) (dev hetero.DeviceKind, anyDevice bool, err error) {
	if target == "" {
		return 0, true, nil
	}
	k, ok := hetero.DeviceKindByName(target)
	if !ok {
		return 0, false, fmt.Errorf("idiomatic: unknown target device %q (want CPU, iGPU or GPU)", target)
	}
	return k, false, nil
}

// offloadFor ranks the APIs serving kind, per device (all, or the pinned
// target only). branchyKernel excludes straight-line-only APIs. The
// rankings come from the static Table 3 profiles, so each one is built once
// and shared, read-only, by every plan that asks for it: a long-lived
// client holding many results holds one copy. Kinds no profile serves rank
// to nil and are not kept, so tenant kinds cannot grow the table.
func offloadFor(kind string, target hetero.DeviceKind, anyDevice, branchyKernel bool) []DeviceOffload {
	if kind == "" {
		return nil
	}
	if anyDevice {
		target = 0
	}
	key := offloadKey{kind, target, anyDevice, branchyKernel}
	if v, ok := offloadRanks.Load(key); ok {
		return v.([]DeviceOffload)
	}
	devs := []hetero.DeviceKind{target}
	if anyDevice {
		devs = []hetero.DeviceKind{CPU, IGPU, GPU}
	}
	var out []DeviceOffload
	for _, d := range devs {
		ranked := hetero.RankOnDevice(d, kind, branchyKernel)
		if len(ranked) == 0 {
			continue
		}
		do := DeviceOffload{Device: d.String(), Choices: make([]APIChoice, len(ranked))}
		for i, r := range ranked {
			do.Choices[i] = APIChoice{API: r.API, Efficiency: r.Efficiency, EffectiveGFLOPS: r.EffectiveGFLOPS}
		}
		out = append(out, do)
	}
	if out == nil {
		return nil
	}
	v, _ := offloadRanks.LoadOrStore(key, slices.Clip(out))
	return v.([]DeviceOffload)
}

type offloadKey struct {
	kind               string
	target             hetero.DeviceKind
	anyDevice, branchy bool
}

// offloadRanks memoizes offloadFor by offloadKey.
var offloadRanks sync.Map

// planInstances selects a backend for every finding and applies the code
// replacement in finding order, mutating mod — the transformation leg of the
// match pipeline. target must already be validated. The result is
// deterministic: identical detections produce byte-identical plans.
//
// Selection is two-phase because one input is only known after outlining:
// an extracted kernel containing control flow disqualifies
// NeedsStraightLineKernel APIs (the paper's Halide restriction). The plan
// is provisionally transformed with the unrestricted best backend; if the
// outlined kernel turns out branchy and that backend cannot take it, the
// call is retargeted to the best remaining API and the ranking re-filtered.
func planInstances(mod *ir.Module, instances []detect.Instance, target string) []PlanCall {
	tdev, anyDevice, _ := matchTarget(target)
	plans := make([]PlanCall, 0, len(instances))
	// A failed Apply may leave its function partially rewritten; later
	// instances in that function would transform garbage, so they are
	// skipped explicitly instead of reported as spurious failures.
	poisoned := map[*ir.Function]bool{}
	for _, inst := range instances {
		pc := PlanCall{
			Idiom:    inst.Idiom.Name,
			Class:    inst.Idiom.Class.String(),
			Function: inst.Function.Ident,
		}
		// Backend selection: best profiled API for the idiom's kind, on the
		// target (or across devices). Idioms without an offload model — or
		// kinds nothing profiles on the target — fall back to the generic
		// DSL backend, like the paper's Lift catch-all.
		backend := "lift"
		selected := false
		if api, dev, ok := hetero.SelectBackend(inst.Idiom.Kind, tdev, anyDevice, false); ok {
			backend, selected = api, true
			pc.Device = dev.String()
		}
		if poisoned[inst.Function] {
			pc.Offload = offloadFor(inst.Idiom.Kind, tdev, anyDevice, false)
			pc.Err = "skipped: an earlier transformation of this function failed"
			plans = append(plans, pc)
			continue
		}
		call, err := transform.Apply(mod, inst, backend)
		if err != nil {
			poisoned[inst.Function] = true
			pc.Offload = offloadFor(inst.Idiom.Kind, tdev, anyDevice, false)
			pc.Err = err.Error()
			plans = append(plans, pc)
			continue
		}
		branchy := hetero.KernelHasBranches(call.Kernel)
		if branchy && selected {
			// Re-select under the straight-line restriction; the kernel and
			// API name survive, only the backend qualifier moves.
			if api, dev, ok := hetero.SelectBackend(inst.Idiom.Kind, tdev, anyDevice, true); ok {
				if api != backend {
					call.Retarget(mod, api)
				}
				backend = api
				pc.Device = dev.String()
			} else {
				// Nothing on the target can take a branchy kernel; keep the
				// generic DSL fallback.
				if backend != "lift" {
					call.Retarget(mod, "lift")
				}
				backend = "lift"
				pc.Device = ""
			}
		}
		pc.Offload = offloadFor(inst.Idiom.Kind, tdev, anyDevice, branchy)
		pc.Backend = backend
		pc.Rendering, pc.Extern = renderCall(call)
		if call.Kernel != nil {
			// The extern ends in "#"+kernel for outlined DSL kernels.
			pc.Kernel = call.Kernel.Ident
			if rest, ok := strings.CutSuffix(pc.Extern, "#"+pc.Kernel); ok {
				pc.Kernel = pc.Extern[len(rest)+1:]
			}
		}
		pc.Unsound = call.Unsound
		pc.RuntimeChecks = append([]string(nil), call.RuntimeChecks...)
		plans = append(plans, pc)
	}
	return plans
}

// renderCall renders an applied call like the paper's Figure 6 and returns
// its extern as the prefix of that rendering, so that a plan holding both
// keeps one string.
func renderCall(call *transform.APICall) (rendering, extern string) {
	rendering = call.String()
	return rendering, rendering[:len(call.Extern)]
}

// MatchResult renders the task's outcome as a v1 match result under the
// given sequence number, blocking until the task completes: the detection
// payload of Result plus transformation plans and backend selection. The
// task's module is rewritten in place (idioms replaced by API calls), so
// with EmitIR the IR field is the post-transformation SSA.
func (t *Task) MatchResult(seq int, target string) MatchResult {
	out := MatchResult{DetectResult: t.Result(seq), Target: target}
	if t.pack != nil {
		out.Pack, out.PackVersion = t.pack.Name, t.pack.Version
	}
	if out.Err != "" {
		return out
	}
	// The service paths validated the target at intake; direct callers get
	// the same error in-band rather than plans silently pinned to a
	// default device.
	if _, _, err := matchTarget(target); err != nil {
		out.Err = err.Error()
		return out
	}
	out.Plans = planInstances(t.res.Mod, t.res.Instances, target)
	if t.Req.Opts.EmitIR {
		out.IR = t.res.Mod.String()
	}
	return out
}

// submitMatch validates the match-specific request fields and enqueues the
// underlying detection.
func (s *Service) submitMatch(ctx context.Context, req MatchRequest) (*Task, error) {
	if _, _, err := matchTarget(req.Target); err != nil {
		return nil, err
	}
	return s.Submit(ctx, DetectRequest{
		Name: req.Name, Source: req.Source,
		Idioms: req.Idioms, Pack: req.Pack, Opts: req.Opts,
		DeadlineMs: req.DeadlineMs,
	})
}

// Match runs one end-to-end matching request: compile → detect → transform →
// backend selection. Per-request failures (compile error, cancellation)
// are reported inside the result's Err field; per-instance transformation
// failures inside the plan's Err field. The returned error covers intake
// failures only (ErrOverloaded, ErrClosed, unknown pack/idiom/target).
func (s *Service) Match(ctx context.Context, req MatchRequest) (MatchResult, error) {
	t, err := s.submitMatch(ctx, req)
	if err != nil {
		return MatchResult{}, err
	}
	return t.MatchResult(0, req.Target), nil
}

// MatchBatch runs a batch of match requests and returns their results in
// submit order (Seq = index into reqs), with the same intake semantics as
// DetectBatch.
func (s *Service) MatchBatch(ctx context.Context, reqs []MatchRequest) ([]MatchResult, error) {
	return runBatch(ctx, s, reqs, s.submitMatch, matchRender(reqs))
}

// MatchStream runs a batch of match requests and returns a channel
// delivering one result per request in completion order, Seq carrying the
// submit-order position — the same sequence semantics and byte-identity
// guarantee as DetectStream: reassembling by Seq is byte-identical to
// MatchBatch over the same requests.
func (s *Service) MatchStream(ctx context.Context, reqs []MatchRequest) (<-chan MatchResult, error) {
	return runStream(ctx, s, reqs, s.submitMatch, matchRender(reqs))
}

// matchRender renders the batch's i-th task as a match result for its
// request's target.
func matchRender(reqs []MatchRequest) func(*Task, int) MatchResult {
	return func(t *Task, i int) MatchResult { return t.MatchResult(i, reqs[i].Target) }
}

// --- idiom-pack registration surface ---

// PackInfo is the wire description of one registered idiom pack.
type PackInfo struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	// Lines is the pack's non-empty IDL line count.
	Lines  int         `json:"lines"`
	Idioms []IdiomInfo `json:"idioms"`
}

func packInfo(p *idioms.Pack) PackInfo {
	out := PackInfo{Name: p.Name, Version: p.Version, Lines: p.Lines}
	for _, idm := range p.Idioms {
		out.Idioms = append(out.Idioms, IdiomInfo{
			Name:   idm.Name,
			Class:  idm.Class.String(),
			Scheme: idm.Scheme,
			Kind:   idm.Kind,
		})
	}
	return out
}

// RegisterPack compiles an idiom pack from IDL source and installs it under
// name — live, no rebuild, no restart. Replacing an existing name is atomic:
// in-flight requests keep the snapshot they resolved at intake, and memo
// entries are keyed by a digest of the IDL source, so a replacement with
// different source is never served the old one's cached solves. Validation
// is the exact code path of `idlc -pack`, so CLI and HTTP report identical
// errors.
// With a state dir the pack is then saved as its name's file, under the
// same lock as the registration, so a restarted process restores exactly
// the live set through this same compile path — packs survive restarts
// with no client re-registration.
func (s *Service) RegisterPack(name, idlSource string, tops []TopSpec) (PackInfo, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	p, err := s.reg.Register(name, idlSource, tops)
	if err != nil {
		return PackInfo{}, err
	}
	if s.store != nil {
		if err := s.savePack(p); err != nil {
			// The pack is live in memory; surface the durability failure so
			// the caller knows a restart would lose it.
			return PackInfo{}, fmt.Errorf("idiomatic: pack %q registered but not persisted: %w", name, err)
		}
	}
	return packInfo(p), nil
}

// Packs lists the currently registered idiom packs, sorted by name.
func (s *Service) Packs() []PackInfo {
	var out []PackInfo
	for _, p := range s.reg.Packs() {
		out = append(out, packInfo(p))
	}
	return out
}

// PackByName returns one registered pack's description.
func (s *Service) PackByName(name string) (PackInfo, bool) {
	p, ok := s.reg.Pack(name)
	if !ok {
		return PackInfo{}, false
	}
	return packInfo(p), true
}

// --- backend introspection (GET /v1/backends) ---

// BackendInfo describes one heterogeneous API profile: per device, the
// idiom kinds it implements and the fraction of peak it attains (Table 3).
type BackendInfo struct {
	Name string `json:"name"`
	// Kinds maps device name → idiom kind → efficiency.
	Kinds                   map[string]map[string]float64 `json:"kinds"`
	NeedsStraightLineKernel bool                          `json:"needs_straight_line_kernel,omitempty"`
}

// DeviceInfo describes one modelled device platform.
type DeviceInfo struct {
	Device        string  `json:"device"`
	Name          string  `json:"name"`
	ComputeGFLOPS float64 `json:"compute_gflops"`
	MemBWGBs      float64 `json:"mem_bw_gbs"`
	TransferGBs   float64 `json:"transfer_gbs"`
}

// Backends reports every API profile backend selection ranks over.
func (s *Service) Backends() []BackendInfo {
	var out []BackendInfo
	for _, a := range hetero.APIs() {
		bi := BackendInfo{
			Name:                    a.Name,
			Kinds:                   map[string]map[string]float64{},
			NeedsStraightLineKernel: a.NeedsStraightLineKernel,
		}
		for dev, kinds := range a.Eff {
			m := make(map[string]float64, len(kinds))
			for k, v := range kinds {
				m[k] = v
			}
			bi.Kinds[dev.String()] = m
		}
		out = append(out, bi)
	}
	return out
}

// DevicePlatforms reports the three modelled devices.
func (s *Service) DevicePlatforms() []DeviceInfo {
	var out []DeviceInfo
	for _, d := range hetero.Devices() {
		out = append(out, DeviceInfo{
			Device:        d.Kind.String(),
			Name:          d.Name,
			ComputeGFLOPS: d.ComputeGFLOPS,
			MemBWGBs:      d.MemBWGBs,
			TransferGBs:   d.TransferGBs,
		})
	}
	return out
}

// --- blessed in-process transformation paths ---

// Plan applies profile-driven backend selection and code replacement to an
// already-detected program: one PlanCall per finding, the program module
// rewritten in place. It is the in-process equivalent of POST /v1/match's
// transformation leg (Program paths that keep the paper's fixed backend
// mapping use Accelerate instead).
func (s *Service) Plan(ctx context.Context, p *Program, d *Detection, target string) ([]PlanCall, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, _, err := matchTarget(target); err != nil {
		return nil, err
	}
	insts := make([]detect.Instance, len(d.Instances))
	for i, inst := range d.Instances {
		insts[i] = inst.inner
	}
	return planInstances(p.Module, insts, target), nil
}

// MatchIDL compiles a user-written IDL specification and returns all
// solutions of the named constraint over the given function of p — the
// paper's §1 extensibility story as a one-shot probe. Registering the same
// IDL as a pack (RegisterPack) additionally gets claim-deduplicated
// detection, transformation and backend selection. Cancelling ctx aborts the
// search; MatchIDL then returns ctx.Err().
func (s *Service) MatchIDL(ctx context.Context, p *Program, idlSource, constraintName, function string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prog, err := idl.ParseProgram(idlSource)
	if err != nil {
		return nil, err
	}
	problem, err := constraint.Compile(prog, constraintName, constraint.CompileOptions{})
	if err != nil {
		return nil, err
	}
	fn := p.Module.FunctionByName(function)
	if fn == nil {
		return nil, fmt.Errorf("idiomatic: no function %q", function)
	}
	solver := constraint.NewSolver(problem, analysis.Analyze(fn))
	solver.Cancel = ctx.Done()
	sols := solver.Solve()
	if solver.Cancelled() {
		return nil, ctx.Err()
	}
	var out []string
	for _, sol := range sols {
		out = append(out, sol.String())
	}
	return out, nil
}

// Accelerate replaces every detected idiom with a call to the appropriate
// heterogeneous API using the paper's fixed backend mapping (libraries for
// GEMM/SPMV, the DSL for everything else), rewriting the program in place —
// the evaluated Figure 1 pipeline. Profile-driven selection is Plan / Match.
func (s *Service) Accelerate(ctx context.Context, p *Program, d *Detection) ([]APICall, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []APICall
	for _, inst := range d.Instances {
		call, err := transform.Apply(p.Module, inst.inner, transform.FixedBackend(inst.Idiom))
		if err != nil {
			return nil, fmt.Errorf("idiomatic: %s in %s: %w", inst.Idiom, inst.Function, err)
		}
		rendering, extern := renderCall(call)
		out = append(out, APICall{
			Extern: extern, Unsound: call.Unsound,
			RuntimeChecks: append([]string(nil), call.RuntimeChecks...),
			Rendering:     rendering,
		})
	}
	if err := ir.VerifyModule(p.Module); err != nil {
		return nil, err
	}
	return out, nil
}

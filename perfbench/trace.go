package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/idiomatic"
	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/hetero"
	"repro/internal/httpapi"
	"repro/internal/idioms"
	"repro/internal/ir"
	"repro/internal/similarity"
	"repro/internal/store"
	"repro/internal/transform"
)

// sumTolerance is how far, as a share of the Workers:1 end-to-end median,
// the per-layer self times of a traced unit may sum from it on cold-suite
// and warm-serve.
const sumTolerance = 0.15

// layerNames are the per-layer metrics every workload prints with
// --trace 1, in BENCHMARK.json order.
var layerNames = []string{
	"cc.compile_ms", "analysis.analyze_ms", "similarity.prescreen_ms",
	"similarity.skipped", "similarity.reordered",
	"constraint.solve_ms",
	"constraint.solve_ms.GEMM", "constraint.solve_ms.SPMV", "constraint.solve_ms.Reduction",
	"constraint.solve_ms.Histogram", "constraint.solve_ms.Stencil1", "constraint.solve_ms.Stencil2",
	"constraint.solve_ms.Stencil3",
	"constraint.steps", "constraint.worst_module_solve_ms",
	"constraint.memo_get_us", "constraint.memo_put_us",
	"constraint.memo_hits", "constraint.memo_misses", "constraint.memo_hit_ratio",
	"detect.engine_overhead_ms",
	"pipeline.compile_queue_mean", "pipeline.ready_queue_mean", "pipeline.solve_util",
	"transform.apply_ms", "hetero.select_ms", "idiomatic.encode_ms",
	"httpapi.overhead_ms", "fleet.front_self_ms", "idioms.register_ms",
	"store.boot_ms", "store.spill_hits", "store.writes", "store.sync_spills", "store.async_drops",
	"process.alloc_kb_per_module", "process.gc_pause_ms",
	"loadgen.gen_late_p99_ms", "loadgen.rejected_runs",
	"trace.e2e_w1_ms", "trace.layer_sum_ratio", "trace.replay_engine_ratio", "trace.overhead_ms", "trace.overhead_pct",
}

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A tracer that is off records nothing and
// returns span ID 0.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per root span, each layer's self time: a span's
// duration minus the part of it its children cover, summed by name over
// the root's descendants.
func (t *tracer) selfTimes() map[int]map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	rootOf := func(s span) int {
		for s.Parent != 0 {
			s = t.spans[s.Parent-1]
		}
		return s.ID
	}
	out := map[int]map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		r := rootOf(s)
		if out[r] == nil {
			out[r] = map[string]time.Duration{}
		}
		out[r][s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is how much of s the union of kids' intervals covers.
func covered(s span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			total += v.b - v.a
			end = v.b
		}
	}
	return time.Duration(total)
}

// byName returns the durations of every span with the given name.
func (t *tracer) byName(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phaseMem brackets a measured phase with runtime memory statistics.
type phaseMem struct{ before runtime.MemStats }

func beginPhase() *phaseMem {
	p := &phaseMem{}
	runtime.ReadMemStats(&p.before)
	return p
}

// end records allocation per answered module and GC pause time.
func (p *phaseMem) end(m *metrics, modules int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if modules < 1 {
		modules = 1
	}
	m.set("process.alloc_kb_per_module", "KiB", float64(after.TotalAlloc-p.before.TotalAlloc)/1024/float64(modules))
	m.set("process.gc_pause_ms", "ms", float64(after.PauseTotalNs-p.before.PauseTotalNs)/1e6)
}

// traced is the --trace 1 run: the workload's own traffic with the gauge
// sampler on (phase A), a Workers:1 replay of its inputs through each
// layer's public functions with spans (phase B), and workload-independent
// probes of the solver, store, registry and front (phase C).
func traced(cfg config, wf workloadFunc, o *outcome) error {
	if err := wf(cfg, o); err != nil {
		return err
	}
	mods, err := suite()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	tr := newTracer(true)
	if err := replayPhase(cfg, o, mods, rng, tr); err != nil {
		return err
	}
	if err := solverProbe(o, mods); err != nil {
		return err
	}
	if err := fleetProbe(cfg, o, mods, rng, tr); err != nil {
		return err
	}
	if err := registerProbe(o); err != nil {
		return err
	}
	dir := filepath.Join(filepath.Dir(filepath.Dir(cfg.work)), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d-%d.jsonl", cfg.workload, cfg.seed, time.Now().UnixNano())))
}

// replayUnits draws phase B's units from the workload's inputs: whole
// permuted suite passes for cold-suite, otherwise single modules in five
// seed-shuffled blocks of the suite.
func replayUnits(workload string, mods []module, rng *rand.Rand) [][]module {
	var units [][]module
	if workload == "cold-suite" {
		for i := 0; i < 3; i++ {
			units = append(units, permuted(mods, rng))
		}
		return units
	}
	for i := 0; i < 5; i++ {
		for _, m := range permuted(mods, rng) {
			units = append(units, []module{m})
		}
	}
	return units
}

// memoState builds solve caches in the state the workload's system keeps
// them: empty for cold-suite, warmed by one suite pass for warm-serve, and
// backed by a copy of the prepared disk spill for fleet-churn.
type memoState struct {
	workload string
	mods     []module
	pristine []string
	work     string
	stores   []*store.Store
	n        int
}

func (ms *memoState) cache() (*constraint.SolveCache, error) {
	c := constraint.NewSolveCache()
	switch ms.workload {
	case "warm-serve":
		irs, err := compileAll(ms.mods)
		if err != nil {
			return nil, err
		}
		eng, err := detect.NewEngine(detect.Options{Workers: 1, Memo: c})
		if err != nil {
			return nil, err
		}
		if _, err := eng.Modules(irs); err != nil {
			return nil, err
		}
	case "fleet-churn":
		ms.n++
		dirs, err := freshCopies(ms.pristine[:1], filepath.Join(ms.work, fmt.Sprintf("memo%d", ms.n)))
		if err != nil {
			return nil, err
		}
		st, err := store.Open(dirs[0])
		if err != nil {
			return nil, err
		}
		ms.stores = append(ms.stores, st)
		c.AttachStore(st)
	}
	return c, nil
}

func (ms *memoState) close() {
	for _, st := range ms.stores {
		st.Close()
	}
}

func compileAll(mods []module) ([]*ir.Module, error) {
	out := make([]*ir.Module, len(mods))
	for i, m := range mods {
		var err error
		if out[i], err = cc.Compile(m.Name, m.Source); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayer re-runs detection outside the engine, one public layer call at
// a time, so each layer's share of the engine's time can be attributed.
type replayer struct {
	probs []*constraint.Problem
	sigs  []*similarity.Signature
}

func newReplayer() (*replayer, error) {
	rp := &replayer{}
	ros := idioms.All()
	probs, err := idioms.Problems(ros)
	if err != nil {
		return nil, err
	}
	for _, idm := range ros {
		p := probs[idm.Name]
		constraint.Prepare(p)
		rp.probs = append(rp.probs, p)
		rp.sigs = append(rp.sigs, similarity.Compile(idm.Name, p))
	}
	return rp, nil
}

// detect replays the engine's per-function work: analysis, prescreen, memo
// lookup and, on a miss, a fresh solve stored back into the memo.
func (rp *replayer) detect(tr *tracer, parent, req int, irs []*ir.Module, memo *constraint.SolveCache) {
	for _, mod := range irs {
		for _, fn := range mod.Functions {
			id := tr.begin("analysis.analyze", parent, req)
			info := analysis.Analyze(fn)
			tr.end(id)
			id = tr.begin("similarity.prescreen", parent, req)
			feats := similarity.Extract(info)
			for _, sg := range rp.sigs {
				_ = sg.Score(feats)
			}
			tr.end(id)
			id = tr.begin("constraint.memo_key", parent, req)
			fp := constraint.FingerprintInfo(info)
			tr.end(id)
			for _, prob := range rp.probs {
				id = tr.begin("constraint.memo_get", parent, req)
				_, _, ok := memo.Get(prob, fp, info)
				tr.end(id)
				if ok {
					continue
				}
				id = tr.begin("constraint.solve", parent, req)
				t0 := time.Now()
				s := constraint.NewSolver(prob, info)
				sols := s.Solve()
				d := time.Since(t0)
				tr.end(id)
				id = tr.begin("constraint.memo_put", parent, req)
				memo.Put(prob, fp, info, sols, s.Steps)
				memo.RecordCost(prob, info, d)
				tr.end(id)
			}
		}
	}
}

// plan replays the match leg for every instance: backend selection and the
// code replacement, in the order the service applies them.
func plan(tr *tracer, parent, req int, mod *ir.Module, insts []detect.Instance) error {
	for _, inst := range insts {
		kind := inst.Idiom.Kind
		id := tr.begin("hetero.select", parent, req)
		backend, _, selected := hetero.SelectBackend(kind, hetero.CPU, true, false)
		if !selected {
			backend = "lift"
		}
		tr.end(id)
		id = tr.begin("transform.apply", parent, req)
		call, err := transform.Apply(mod, inst, backend)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("replay transform of %s in %s: %w", inst.Idiom.Name, inst.Function.Ident, err)
		}
		id = tr.begin("hetero.select", parent, req)
		branchy := hetero.KernelHasBranches(call.Kernel)
		retarget := ""
		if branchy && selected {
			if api, _, ok := hetero.SelectBackend(kind, hetero.CPU, true, true); ok {
				retarget = api
			} else {
				retarget = "lift"
			}
		}
		if kind != "" {
			for _, d := range []hetero.DeviceKind{hetero.CPU, hetero.IGPU, hetero.GPU} {
				_ = hetero.RankOnDevice(d, kind, branchy)
			}
		}
		tr.end(id)
		id = tr.begin("transform.apply", parent, req)
		if retarget != "" && retarget != backend {
			call.Retarget(mod, retarget)
		}
		_ = call.String()
		tr.end(id)
	}
	return nil
}

// replayPhase is phase B: the workload's units through the real service at
// Workers:1 (the end-to-end reference), then through the layer replay with
// spans off and on.
func replayPhase(cfg config, o *outcome, mods []module, rng *rand.Rand, tr *tracer) error {
	units := replayUnits(cfg.workload, mods, rng)
	state := &memoState{workload: cfg.workload, mods: mods, work: filepath.Join(cfg.work, "replay")}
	defer state.close()
	if cfg.workload == "fleet-churn" {
		var err error
		if state.pristine, err = preparePristine(filepath.Join(cfg.work, "replay-pristine"), mods); err != nil {
			return err
		}
	}

	// Per unit, the system and the untraced and traced replays run back to
	// back in rotating order, each replay with its own caches, so drift in
	// the host affects all three alike.
	sys := &systemW1{cfg: cfg, state: state, units: units}
	defer sys.close()
	var sysTimes []time.Duration
	type mode struct {
		tr               *tracer
		engMemo, manMemo *constraint.SolveCache
		roots            []time.Duration
	}
	modes := []*mode{{tr: newTracer(false)}, {tr: tr}}
	rp, err := newReplayer()
	if err != nil {
		return err
	}
	replay := func(m *mode, u int) error {
		if m.engMemo == nil || cfg.workload == "cold-suite" {
			var err error
			if m.engMemo, err = state.cache(); err != nil {
				return err
			}
			if m.manMemo, err = state.cache(); err != nil {
				return err
			}
		}
		eng, err := detect.NewEngine(detect.Options{Workers: 1, Memo: m.engMemo})
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := replayUnit(m.tr, u, units[u], eng, rp, m.manMemo); err != nil {
			return err
		}
		m.roots = append(m.roots, time.Since(t0))
		return nil
	}
	for u := range units {
		steps := []func() error{
			func() error {
				d, err := sys.run(o, tr, u)
				sysTimes = append(sysTimes, d)
				return err
			},
			func() error { return replay(modes[0], u) },
			func() error { return replay(modes[1], u) },
		}
		for k := range steps {
			if err := steps[(k+u)%len(steps)](); err != nil {
				return err
			}
		}
	}
	e2e := median(durationsMs(sysTimes))
	roots := [2][]time.Duration{modes[0].roots, modes[1].roots}
	untraced, tracedMed := median(durationsMs(roots[0])), median(durationsMs(roots[1]))
	o.layers.set("trace.overhead_ms", "ms", tracedMed-untraced)
	o.layers.set("trace.overhead_pct", "%", 100*(tracedMed-untraced)/untraced)

	// Per-unit self times of the traced replay.
	self := tr.selfTimes()
	perUnit := map[string][]float64{}
	var sum, engine, replayed time.Duration
	for id, layers := range self {
		if tr.spans[id-1].Name != "unit" {
			continue
		}
		manual := time.Duration(0)
		for _, n := range []string{"analysis.analyze", "similarity.prescreen", "constraint.memo_key", "constraint.memo_get", "constraint.solve", "constraint.memo_put"} {
			manual += layers[n]
		}
		engine += layers["detect.engine"]
		replayed += manual
		overhead := layers["detect.engine"] - manual
		perUnit["detect.engine_overhead_ms"] = append(perUnit["detect.engine_overhead_ms"], ms(overhead))
		for _, n := range []string{"cc.compile", "analysis.analyze", "similarity.prescreen", "transform.apply", "hetero.select"} {
			perUnit[n+"_ms"] = append(perUnit[n+"_ms"], ms(layers[n]))
		}
		sum += layers["cc.compile"] + layers["detect.engine"] + layers["transform.apply"] + layers["hetero.select"]
	}
	for _, n := range []string{"cc.compile_ms", "analysis.analyze_ms", "similarity.prescreen_ms", "transform.apply_ms", "hetero.select_ms", "detect.engine_overhead_ms"} {
		o.layers.median(n, "ms", perUnit[n])
	}
	gets := tr.byName("constraint.memo_get")
	for i := range gets {
		gets[i] /= float64(time.Microsecond)
	}
	o.layers.median("constraint.memo_get_us", "us", gets)
	enc := tr.byName("idiomatic.encode")
	for i := range enc {
		enc[i] /= float64(time.Millisecond)
	}
	o.layers.median("idiomatic.encode_ms", "ms", enc)
	o.layers.set("trace.e2e_w1_ms", "ms", e2e)
	var total time.Duration
	for _, d := range sysTimes {
		total += d
	}
	ratio := float64(sum) / float64(total)
	o.layers.set("trace.layer_sum_ratio", "ratio", ratio)
	// The engine's layers come from the replay, so the replay may not claim
	// more of the engine's time than the engine took: over all units, the
	// engine overhead left after subtracting them must not be negative
	// beyond the tolerance.
	attributed := float64(replayed) / float64(engine)
	o.layers.set("trace.replay_engine_ratio", "ratio", attributed)
	if cfg.workload != "fleet-churn" {
		o.selfCheck(ratio >= 1-sumTolerance && ratio <= 1+sumTolerance,
			"per-layer self times sum to %.3f of the Workers:1 end-to-end median (tolerance %.2f)", ratio, sumTolerance)
		o.selfCheck(attributed <= 1+sumTolerance,
			"the detection replay's layers sum to %.3f of the engine's time (tolerance %.2f)", attributed, sumTolerance)
	}
	return httpOverhead(o, units)
}

// replayUnit is one traced unit: compile, the engine's detection, the
// detection replay that attributes the engine's time, and the match leg.
func replayUnit(tr *tracer, u int, unit []module, eng *detect.Engine, rp *replayer, manMemo *constraint.SolveCache) error {
	root := tr.begin("unit", 0, u)
	defer tr.end(root)
	irs := make([]*ir.Module, len(unit))
	for i, m := range unit {
		id := tr.begin("cc.compile", root, u)
		mod, err := cc.Compile(m.Name, m.Source)
		tr.end(id)
		if err != nil {
			return err
		}
		irs[i] = mod
	}
	id := tr.begin("detect.engine", root, u)
	res, err := eng.Modules(irs)
	tr.end(id)
	if err != nil {
		return err
	}
	for i, r := range res {
		if err := plan(tr, root, u, irs[i], r.Instances); err != nil {
			return err
		}
	}
	// The detection replay comes last, so the path above runs on caches as
	// warm as the service's, and on its own copies of the modules, since
	// the match leg rewrote irs.
	copies, err := compileAll(unit)
	if err != nil {
		return err
	}
	id = tr.begin("detect.replay", root, u)
	rp.detect(tr, id, u, copies, manMemo)
	tr.end(id)
	return nil
}

// systemW1 is the real service at Workers:1 in the workload's memo state:
// the end-to-end reference the replay's layers must sum to.
type systemW1 struct {
	cfg   config
	state *memoState
	units [][]module
	svc   *idiomatic.Service
}

func (s *systemW1) close() {
	if s.svc != nil {
		s.svc.Close()
		s.svc = nil
	}
}

func (s *systemW1) newService() (*idiomatic.Service, error) {
	opts := idiomatic.ServiceOptions{Workers: 1}
	if s.cfg.workload == "fleet-churn" {
		s.state.n++
		dirs, err := freshCopies(s.state.pristine[:1], filepath.Join(s.state.work, fmt.Sprintf("svc%d", s.state.n)))
		if err != nil {
			return nil, err
		}
		opts.StateDir = dirs[0]
	}
	svc, err := idiomatic.NewService(opts)
	if err != nil {
		return nil, err
	}
	if s.cfg.workload == "warm-serve" {
		if _, err := svc.MatchBatch(context.Background(), matchRequests(distinct(s.units), false)); err != nil {
			svc.Close()
			return nil, err
		}
	}
	return svc, nil
}

// run answers unit u as a root span of its own (a fresh service per unit
// on cold-suite), checks the answers, and encodes them as the HTTP layer
// does (idiomatic.encode spans).
func (s *systemW1) run(o *outcome, tr *tracer, u int) (time.Duration, error) {
	if s.svc == nil || s.cfg.workload == "cold-suite" {
		s.close()
		svc, err := s.newService()
		if err != nil {
			return 0, err
		}
		s.svc = svc
	}
	id := tr.begin("system", 0, u)
	t0 := time.Now()
	ch, err := s.svc.MatchStream(context.Background(), matchRequests(s.units[u], false))
	if err != nil {
		return 0, err
	}
	var res []idiomatic.MatchResult
	for r := range ch {
		res = append(res, r)
	}
	d := time.Since(t0)
	tr.end(id)
	for _, r := range res {
		o.chk.checkLocal(r, false)
	}
	id = tr.begin("idiomatic.encode", 0, u)
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"results": res})
	tr.end(id)
	return d, nil
}

// distinct is the distinct modules of the units, in first-seen order.
func distinct(units [][]module) []module {
	seen := map[string]bool{}
	var out []module
	for _, u := range units {
		for _, m := range u {
			if !seen[m.Name] {
				seen[m.Name] = true
				out = append(out, m)
			}
		}
	}
	return out
}

// httpOverhead measures the HTTP round trip minus the in-process Match of
// the same single-module requests on a warm Workers:1 service.
func httpOverhead(o *outcome, units [][]module) error {
	var seq []module
	for _, u := range units {
		seq = append(seq, u...)
	}
	if len(seq) > 63 {
		seq = seq[:63]
	}
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{Workers: 1})
	if err != nil {
		return err
	}
	defer svc.Close()
	if _, err := svc.MatchBatch(context.Background(), matchRequests(distinct(units), false)); err != nil {
		return err
	}
	srv, err := serve(httpapi.New(svc))
	if err != nil {
		return err
	}
	defer srv.stop()
	cl := newClient(1, "")
	defer cl.close()
	var local, remote []float64
	for _, m := range seq {
		req := idiomatic.MatchRequest{Name: m.Name, Source: m.Source}
		body, _ := json.Marshal(req)
		t0 := time.Now()
		r, err := svc.Match(context.Background(), req)
		local = append(local, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		o.chk.checkLocal(r, false)
		t0 = time.Now()
		res, err := cl.match(srv.url, body, nil)
		remote = append(remote, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		for _, raw := range res {
			o.chk.check(raw, false)
		}
	}
	o.layers.set("httpapi.overhead_ms", "ms", median(remote)-median(local))
	return nil
}

// solverProbe solves every (function × idiom) pair of the suite fresh,
// three times, for the solver's per-class cost, step count and tail, and
// times memo puts of the outcomes.
func solverProbe(o *outcome, mods []module) error {
	rp, err := newReplayer()
	if err != nil {
		return err
	}
	ros := idioms.All()
	var totals, worst []float64
	perClass := map[string][]float64{}
	var puts []float64
	steps := -1
	for rep := 0; rep < 3; rep++ {
		irs, err := compileAll(mods)
		if err != nil {
			return err
		}
		memo := constraint.NewSolveCache()
		var total, worstMod time.Duration
		class := map[string]time.Duration{}
		n := 0
		for _, mod := range irs {
			var modTotal time.Duration
			for _, fn := range mod.Functions {
				info := analysis.Analyze(fn)
				fp := constraint.FingerprintInfo(info)
				for i, prob := range rp.probs {
					t0 := time.Now()
					s := constraint.NewSolver(prob, info)
					sols := s.Solve()
					d := time.Since(t0)
					n += s.Steps
					class[ros[i].Name] += d
					modTotal += d
					t0 = time.Now()
					memo.Put(prob, fp, info, sols, s.Steps)
					puts = append(puts, float64(time.Since(t0))/float64(time.Microsecond))
				}
			}
			total += modTotal
			worstMod = max(worstMod, modTotal)
		}
		o.selfCheck(steps < 0 || steps == n, "solver probe steps changed between repetitions: %d then %d", steps, n)
		steps = n
		totals = append(totals, ms(total))
		worst = append(worst, ms(worstMod))
		for _, idm := range ros {
			perClass[idm.Name] = append(perClass[idm.Name], ms(class[idm.Name]))
		}
	}
	o.layers.median("constraint.solve_ms", "ms", totals)
	for _, idm := range ros {
		o.layers.median("constraint.solve_ms."+idm.Name, "ms", perClass[idm.Name])
	}
	o.layers.set("constraint.steps", "count", float64(steps))
	o.layers.median("constraint.worst_module_solve_ms", "ms", worst)
	o.layers.median("constraint.memo_put_us", "us", puts)
	if s, ok := o.info["suite_steps"].(int); ok {
		o.selfCheck(s == steps, "a cold pass reported %d solver steps, fresh solves of the suite take %d", s, steps)
	}
	return nil
}

// registerProbe times idioms.CompilePack of the bench pack, the work every
// registration does on every replica.
func registerProbe(o *outcome) error {
	var out []float64
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		if _, err := idioms.CompilePack(packName, packSource(), packTops, uint64(i+1)); err != nil {
			return err
		}
		out = append(out, ms(time.Since(t0)))
	}
	o.layers.median("idioms.register_ms", "ms", out)
	return nil
}

// fleetProbe boots replicas on a prepared state dir (store.boot_ms), sends
// the workload's modules one at a time through a front whose handler and
// replica handlers are wrapped in spans (fleet.front_self_ms), and, for
// workloads without a store of their own, reads the store counters after a
// registration and a pinned suite.
func fleetProbe(cfg config, o *outcome, mods []module, rng *rand.Rand, tr *tracer) error {
	pristine, err := preparePristine(filepath.Join(cfg.work, "probe-pristine"), mods)
	if err != nil {
		return err
	}
	var boots []float64
	for i := 0; i < 3; i++ {
		dirs, err := freshCopies(pristine[:1], filepath.Join(cfg.work, "probe-boot"))
		if err != nil {
			return err
		}
		t0 := time.Now()
		svc, err := idiomatic.NewService(idiomatic.ServiceOptions{StateDir: dirs[0]})
		boots = append(boots, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		svc.Close()
	}
	o.layers.median("store.boot_ms", "ms", boots)

	// Requests go one at a time, so every replica span inside a front span
	// belongs to it.
	var mu sync.Mutex
	var frontID int
	wrap := func(name string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			parent := frontID
			mu.Unlock()
			if name == "front" {
				parent = 0
			}
			id := tr.begin("fleet."+name, parent, -1)
			if name == "front" {
				mu.Lock()
				frontID = id
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
			tr.end(id)
		})
	}
	rd := newClient(1, readerKey)
	defer rd.close()
	f, err := bootFleetWarm(pristine, filepath.Join(cfg.work, "probe-live"), permuted(mods, rng), rd, o, wrap, nil)
	if err != nil {
		return err
	}
	defer f.close()
	for _, b := range singleBodies(permuted(mods, rng)) {
		res, err := rd.match(f.fsrv.url, b, nil)
		if err != nil {
			return err
		}
		for _, raw := range res {
			o.chk.check(raw, false)
		}
	}
	var fronts []float64
	tr.mu.Lock()
	kids := map[int][]span{}
	for _, s := range tr.spans {
		if s.Name == "fleet.replica" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range tr.spans {
		if s.Name == "fleet.front" {
			fronts = append(fronts, ms(s.dur()-covered(s, kids[s.ID])))
		}
	}
	tr.mu.Unlock()
	o.layers.median("fleet.front_self_ms", "ms", fronts)

	if _, ok := o.layers.vals["store.writes"]; !ok {
		wr := newClient(1, writerKey)
		defer wr.close()
		if _, err := wr.post(f.fsrv.url+"/v1/idioms", registration("probe"), nil); err != nil {
			return err
		}
		body, _ := json.Marshal(matchRequests(mods, true))
		res, err := wr.match(f.fsrv.url, body, nil)
		if err != nil {
			return err
		}
		for _, raw := range res {
			o.chk.check(raw, true)
		}
		// Closing flushes the asynchronous spill writes into the counters.
		f.close()
		st := f.storeTotals()
		o.layers.set("store.spill_hits", "count", float64(st.SpillHits))
		o.layers.set("store.writes", "count", float64(st.Writes))
		o.layers.set("store.sync_spills", "count", float64(st.SyncSpills))
		o.layers.set("store.async_drops", "count", float64(st.AsyncDrops))
	}
	return nil
}

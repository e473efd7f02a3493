package idiomatic

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/idioms"
	"repro/internal/ir"
	"repro/internal/store"
)

// ErrBatchTooLarge is returned by the batch helpers when a single batch
// exceeds the intake queue limit: unlike a transient ErrOverloaded (which it
// wraps, so errors.Is(err, ErrOverloaded) holds), retrying the same batch
// can never succeed — it must be split. The HTTP layer distinguishes the two
// by omitting Retry-After.
var ErrBatchTooLarge = fmt.Errorf("idiomatic: batch larger than the intake queue limit (split the batch): %w", ErrOverloaded)

// DefaultQueueLimit bounds a service's in-flight modules when
// ServiceOptions.QueueLimit is zero.
const DefaultQueueLimit = 256

// ServiceOptions configure a Service.
type ServiceOptions struct {
	// Workers sizes the solver pool (0 = GOMAXPROCS). Every per-module CPU
	// step — compile, analysis and solves — runs on this one pool, in
	// per-client fair order.
	Workers int
	// QueueLimit bounds in-flight modules across all requests; submissions
	// beyond it fail with ErrOverloaded. 0 means DefaultQueueLimit, negative
	// means unbounded.
	QueueLimit int
	// MemoMaxEntries bounds the service's solve cache (LRU eviction). 0 means
	// constraint.DefaultMemoMaxEntries, negative means unbounded.
	MemoMaxEntries int
	// NoMemo disables solver memoization entirely.
	NoMemo bool
	// MaxPacks bounds the number of distinct registered idiom-pack names
	// (registrations hold compiled problems for the process lifetime, so
	// the bound caps memory like the memo LRU does). 0 means
	// idioms.DefaultMaxPacks, negative means unbounded. Replacing an
	// existing pack never counts against the bound.
	MaxPacks int
	// ClientQueue bounds each named client's in-flight requests (anonymous
	// tier exempt). 0 or negative means unbounded.
	ClientQueue int
	// ClientRate, when positive, rate-limits named clients to
	// ClientRate*weight requests/sec (token bucket bursting to ClientBurst;
	// anonymous tier exempt). Rejections carry ErrRateLimited.
	ClientRate float64
	// ClientBurst is the token-bucket capacity (0 = max(1, ClientRate)).
	ClientBurst float64
	// StateDir, when non-empty, makes the service's warm state durable
	// (idiomd -state-dir): the solve memo spills to a content-addressed
	// blob store under the directory — with build-cache semantics, so a
	// restarted process re-serves prior solves byte-identically without
	// re-solving — and every pack registration saves that pack as its
	// name's own pack file, restored through the identical CompilePack path
	// at boot. Ignored memo-wise when NoMemo is set; pack durability still
	// applies.
	StateDir string
}

// Service is the long-lived, service-grade front door of the paper's
// compile → detect → transform → backend-selection flow: one shared
// detection engine and its task stream behind a versioned
// request/response model, plus a copy-on-write registry of runtime idiom
// packs. Every request path — the HTTP endpoints of cmd/idiomd, the
// cmd/idiomcc CLI, the examples and the deprecated package-level free
// functions — funnels through a Service, so there is exactly one blessed
// route from source text to detections and transformation plans.
//
// Requests are context-aware end to end: cancelling a request's context
// sheds its remaining compile and constraint-solving work mid-solve.
// Intake is bounded (QueueLimit, ErrOverloaded; per named client
// ClientQueue and ClientRate) so a serving process degrades by rejecting
// rather than queueing without limit. Fairness between admitted clients is
// the stream's: it serves their tasks by weighted round-robin.
type Service struct {
	eng    *detect.Engine
	stream *detect.Stream
	memo   *constraint.SolveCache

	// Intake bounds (see ServiceOptions).
	queueLimit, clientQueue int
	clientRate, clientBurst float64

	// mu guards the intake state below; inflight counts admitted requests
	// not yet finished, so Close can stop the stream after the last one.
	mu                   sync.Mutex
	closed               bool
	clients              map[string]*clientState
	clientOrder          []*clientState // first-seen order, the stats rows
	submitted, completed int64
	inflight             sync.WaitGroup

	// reg holds runtime-registered idiom packs (copy-on-write snapshots;
	// see idioms.Registry). Requests naming a pack resolve their roster
	// against the snapshot current at intake and keep it for their whole
	// lifetime. It is the only record of the registered packs: each name's
	// pack file holds its current registration. regMu serializes
	// RegisterPack so registrations reach disk in the order they reached
	// the registry.
	reg   *idioms.Registry
	regMu sync.Mutex

	// store is the durable warm-state layer (nil without
	// ServiceOptions.StateDir); packsReplayed counts the packs restored
	// from it at boot.
	store         *store.Store
	packsReplayed int
}

// NewService builds a service: the solver pool starts and the solve cache
// is installed. Requests resolve their rosters against the built-in pack,
// compiled once per process, or a registered one. Close releases the pool.
func NewService(o ServiceOptions) (*Service, error) {
	s := &Service{}
	switch {
	case o.MaxPacks == 0:
		s.reg = idioms.NewRegistry()
	case o.MaxPacks < 0:
		s.reg = idioms.NewRegistrySize(0)
	default:
		s.reg = idioms.NewRegistrySize(o.MaxPacks)
	}
	dopts := detect.Options{Workers: o.Workers}
	if !o.NoMemo {
		max := o.MemoMaxEntries
		switch {
		case max == 0:
			s.memo = constraint.NewSolveCache()
		case max < 0:
			s.memo = constraint.NewSolveCacheSize(0)
		default:
			s.memo = constraint.NewSolveCacheSize(max)
		}
		dopts.Memo = s.memo
	}
	eng, err := detect.NewEngine(dopts)
	if err != nil {
		return nil, err
	}
	limit := o.QueueLimit
	if limit == 0 {
		limit = DefaultQueueLimit
	}
	if limit < 0 {
		limit = 0
	}
	burst := o.ClientBurst
	if o.ClientRate > 0 && burst <= 0 {
		burst = max(1, o.ClientRate)
	}
	s.eng = eng
	s.stream = eng.Stream()
	s.queueLimit, s.clientQueue = limit, o.ClientQueue
	s.clientRate, s.clientBurst = o.ClientRate, burst
	s.clients = map[string]*clientState{}
	if o.StateDir != "" {
		st, err := store.Open(o.StateDir)
		if err != nil {
			s.stream.Close()
			return nil, err
		}
		s.store = st
		if s.memo != nil {
			s.memo.AttachStore(st)
		}
		if err := s.restorePacks(); err != nil {
			s.stream.Close()
			st.Close()
			return nil, err
		}
	}
	return s, nil
}

var (
	defaultOnce sync.Once
	defaultSvc  *Service
)

// Default returns the lazily-built process-wide Service, for in-process
// callers that do not need their own pool, bounds or statistics.
func Default() *Service {
	defaultOnce.Do(func() {
		// Unbounded intake: the default service backs blocking in-process
		// library calls (Program.Detect and friends), which must never fail
		// with ErrOverloaded the way network traffic may. Explicit services
		// choose their own bound.
		svc, err := NewService(ServiceOptions{QueueLimit: -1})
		if err != nil {
			// The built-in idiom library always compiles; reaching this means
			// the embedded IDL is broken, which every test would catch.
			panic(fmt.Sprintf("idiomatic: building default service: %v", err))
		}
		defaultSvc = svc
	})
	return defaultSvc
}

// Close stops intake; in-flight requests still complete. With a state dir,
// pending async memo spills are flushed and the store is closed (spills from
// requests still in flight after Close are dropped and counted, never
// half-written). The service cannot be reused afterwards.
func (s *Service) Close() {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !wasClosed {
		go func() {
			s.inflight.Wait()
			s.stream.Close()
		}()
	}
	if s.store != nil {
		s.store.Flush()
		s.store.Close()
	}
}

// --- versioned wire model (v1) ---

// DetectRequest is one v1 detection request: a named C source text, an
// optional idiom subset and response-shaping options. It is the JSON body of
// POST /v1/detect and /v1/detect/stream.
type DetectRequest struct {
	// Name labels the source (a file name or request id); echoed back in the
	// result. Empty defaults to "input.c".
	Name string `json:"name"`
	// Source is the C program text to compile and detect over.
	Source string `json:"source"`
	// Idioms restricts detection to the named idioms, in precedence order
	// (empty = the paper's full default set; extensions such as "Map" only
	// run when named here). With Pack set the names subset that pack's
	// roster instead.
	Idioms []string `json:"idioms,omitempty"`
	// Pack selects a runtime-registered idiom pack instead of the built-in
	// roster (see Service.RegisterPack). Unknown packs are rejected at
	// intake, never answered with an empty 200.
	Pack string `json:"pack,omitempty"`
	// DeadlineMs, when positive, bounds the request's total latency: the
	// service derives a context deadline that sheds queued work and aborts
	// constraint solving mid-search once it expires. A deadline-exceeded
	// outcome is reported in-band in the result's Err field, and the solver
	// pool schedules soonest-deadline work first. (The HTTP layer also
	// accepts this as the X-Deadline-Ms header.)
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Opts shape the response payload.
	Opts RequestOptions `json:"opts"`
}

// RequestOptions shape a DetectResult's payload.
type RequestOptions struct {
	// Solutions includes each finding's full constraint solution bindings
	// (variable name → SSA operand rendering).
	Solutions bool `json:"solutions,omitempty"`
	// EmitIR includes the compiled module's SSA rendering.
	EmitIR bool `json:"emit_ir,omitempty"`
	// Explain includes near-miss diagnostics: the top unmatched idioms with
	// their similarity score, dominant feature deltas, and the constraint
	// family that rejected them.
	Explain bool `json:"explain,omitempty"`
}

// Finding is one JSON-encodable detected idiom instance.
type Finding struct {
	// Idiom is the matched idiom name (GEMM, SPMV, Histogram, ...).
	Idiom string `json:"idiom"`
	// Class is the paper's Table 1 category.
	Class string `json:"class"`
	// Function is the containing function name.
	Function string `json:"function"`
	// Solution holds the constraint solution bindings (only when
	// RequestOptions.Solutions was set).
	Solution map[string]string `json:"solution,omitempty"`
}

// MemoSnapshot reports solver-memoization state. In a DetectResult it is the
// engine's cumulative counters at result-delivery time.
type MemoSnapshot struct {
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	HitRate    float64 `json:"hit_rate"`
	Entries    int     `json:"entries"`
	Evictions  int64   `json:"evictions"`
	MaxEntries int     `json:"max_entries"`
}

// NearMiss is one wire near-miss diagnostic: an idiom the module did not
// match, the best-scoring function, and why the pair was rejected. Only
// present when RequestOptions.Explain was set.
type NearMiss struct {
	Idiom    string `json:"idiom"`
	Function string `json:"function"`
	// Score is the signature similarity in [0, 1]; 0 means provably
	// unmatchable (a required opcode is absent).
	Score float64 `json:"score"`
	// Family is the rejecting constraint family: "opcode", "control-flow",
	// or "dataflow".
	Family string `json:"family"`
	// Deltas are the dominant feature differences, largest deficit first.
	Deltas []string `json:"deltas,omitempty"`
}

// DetectResult is one v1 detection outcome. Streamed responses deliver one
// per submitted request in completion order; Seq is the request's position
// in its batch (submit order), so reassembling a stream by Seq reproduces
// the deterministic batch order.
type DetectResult struct {
	Seq  int    `json:"seq"`
	Name string `json:"name"`
	// Findings are the detected instances, in the engine's deterministic
	// merge order.
	Findings []Finding `json:"findings"`
	// SolverSteps is the backtracking effort (the paper's compile-time cost).
	SolverSteps int `json:"solver_steps"`
	// ElapsedNs is the request's wall time, compile-start → merge-done.
	ElapsedNs int64 `json:"elapsed_ns"`
	// IR is the SSA rendering (only when RequestOptions.EmitIR was set).
	IR string `json:"ir,omitempty"`
	// NearMisses are the explain-mode diagnostics (only when
	// RequestOptions.Explain was set).
	NearMisses []NearMiss `json:"near_misses,omitempty"`
	// Memo snapshots the service's memoization counters at delivery.
	Memo MemoSnapshot `json:"memo"`
	// Err reports a per-request failure (compile error, cancellation); the
	// other payload fields are zero when set.
	Err string `json:"error,omitempty"`
}

// WireResult converts an in-process detection result into its v1 wire form.
// The conversion is deterministic: identical detection results produce
// byte-identical JSON (map keys marshal sorted), which is what lets tests
// assert the HTTP stream against detect.Modules.
func WireResult(seq int, name string, res *detect.Result, opts RequestOptions) DetectResult {
	out := DetectResult{
		Seq:         seq,
		Name:        name,
		SolverSteps: res.SolverSteps,
		ElapsedNs:   res.Elapsed.Nanoseconds(),
	}
	if len(res.Instances) > 0 {
		// Sized exactly: a client may hold many results.
		out.Findings = make([]Finding, 0, len(res.Instances))
	}
	for _, inst := range res.Instances {
		f := Finding{
			Idiom:    inst.Idiom.Name,
			Class:    inst.Idiom.Class.String(),
			Function: inst.Function.Ident,
		}
		if opts.Solutions {
			f.Solution = make(map[string]string, len(inst.Solution))
			for k, v := range inst.Solution {
				f.Solution[k] = v.Operand()
			}
		}
		out.Findings = append(out.Findings, f)
	}
	if opts.Explain {
		for _, nm := range res.NearMisses {
			out.NearMisses = append(out.NearMisses, NearMiss{
				Idiom:    nm.Idiom,
				Function: nm.Function,
				Score:    nm.Score,
				Family:   nm.Family,
				Deltas:   nm.Deltas,
			})
		}
	}
	return out
}

// --- request lifecycle ---

// Task tracks one submitted request through the service. It completes when
// Done is closed; the accessors below are valid only after that.
type Task struct {
	// Req is the originating request.
	Req DetectRequest

	svc *Service
	// pack is the immutable pack snapshot the request resolved against at
	// intake (nil for the built-in roster). Re-registrations during the
	// task's lifetime cannot affect it.
	pack *idioms.Pack

	done chan struct{}
	res  *detect.Result // nil when err is set
	err  error
}

// Submit enqueues one request and returns its Task immediately. It fails
// fast with ErrOverloaded when the intake queue (or the client's bound) is
// full, ErrRateLimited when the client's token bucket is empty, and
// ErrClosed after Close. Cancelling ctx — or exceeding req.DeadlineMs —
// sheds the request's remaining work; the task then completes with the
// context error. The tenant identity attached by WithClient rides the
// context into the solver pool's weighted-fair order.
func (s *Service) Submit(ctx context.Context, req DetectRequest) (*Task, error) {
	if req.Source == "" {
		return nil, errors.New("idiomatic: empty source")
	}
	if req.Name == "" {
		req.Name = "input.c"
	}
	roster, pk, err := s.resolve(req.Pack, req.Idioms)
	if err != nil {
		return nil, err
	}
	name, source := req.Name, req.Source
	return s.submit(ctx, req, pk, detect.Submission{
		Compile: func() (*ir.Module, error) { return cc.Compile(name, source) },
		Roster:  roster, Explain: req.Opts.Explain,
	})
}

// submit admits one submission and runs it on its own goroutine, which
// blocks in Stream.Detect until the module's tasks — compile included —
// have run on the shared pool.
func (s *Service) submit(ctx context.Context, req DetectRequest, pk *idioms.Pack, sub detect.Submission) (*Task, error) {
	cl, _ := ClientFromContext(ctx)
	cs, err := s.admit(cl)
	if err != nil {
		return nil, err
	}
	cancel := context.CancelFunc(func() {})
	if req.DeadlineMs > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
	}
	sub.Ctx, sub.Client, sub.Weight = ctx, cl.Name, cl.Weight
	t := &Task{Req: req, svc: s, pack: pk, done: make(chan struct{})}
	go func() {
		t.res, t.err = s.stream.Detect(sub)
		cancel()
		s.finish(cs)
		close(t.done)
	}()
	return t, nil
}

// resolve maps a request's (pack, idioms) selection to its roster, through
// detect.Resolve: with no pack against the built-in pack (no names = the
// paper's seven idioms, extensions only when named), with a pack against the
// registry snapshot current right now (no names = the whole pack). The pack
// pointer is immutable, so the request solves exactly this registration even
// if a concurrent RegisterPack replaces the name a microsecond later; it is
// returned as nil for the built-in pack, which the wire does not name.
// Unknown names are rejected — a versioned API must not answer a typo with
// an empty 200.
func (s *Service) resolve(pack string, names []string) ([]detect.Resolved, *idioms.Pack, error) {
	if pack == "" {
		roster, err := detect.Resolve(nil, names)
		if err != nil {
			return nil, nil, fmt.Errorf("idiomatic: %w", err)
		}
		return roster, nil, nil
	}
	p, ok := s.reg.Pack(pack)
	if !ok {
		return nil, nil, fmt.Errorf("idiomatic: unknown pack %q", pack)
	}
	roster, err := detect.Resolve(p, names)
	if err != nil {
		return nil, nil, fmt.Errorf("idiomatic: %w in pack %q", err, pack)
	}
	return roster, p, nil
}

// Done is closed when the task has fully completed (or failed).
func (t *Task) Done() <-chan struct{} { return t.done }

// Err reports the task's failure, nil on success. Valid after Done.
func (t *Task) Err() error {
	<-t.done
	return t.err
}

// Program returns the compiled program (nil when the request failed).
// Valid after Done. The program stays bound to this service for further
// Detect/Accelerate/Run calls.
func (t *Task) Program() *Program {
	<-t.done
	if t.res == nil {
		return nil
	}
	return &Program{Module: t.res.Mod, svc: t.svc}
}

// Detection returns the in-process detection outcome (nil on failure),
// carrying the live instances Accelerate consumes. Valid after Done.
func (t *Task) Detection() *Detection {
	<-t.done
	if t.res == nil {
		return nil
	}
	return wrapDetection(t.res)
}

// Result renders the task's outcome in v1 wire form under the given
// (batch-relative) sequence number, blocking until the task completes.
func (t *Task) Result(seq int) DetectResult {
	<-t.done
	if t.err != nil {
		return DetectResult{
			Seq: seq, Name: t.Req.Name,
			Err:  t.err.Error(),
			Memo: t.svc.memoSnapshot(),
		}
	}
	out := WireResult(seq, t.Req.Name, t.res, t.Req.Opts)
	if t.Req.Opts.EmitIR {
		out.IR = t.res.Mod.String()
	}
	out.Memo = t.svc.memoSnapshot()
	return out
}

// Detect runs one request to completion and returns its wire result. A
// per-request failure (compile error, cancellation) is reported inside the
// result's Err field; the returned error covers intake failures only
// (ErrOverloaded, ErrClosed, invalid request).
func (s *Service) Detect(ctx context.Context, req DetectRequest) (DetectResult, error) {
	t, err := s.Submit(ctx, req)
	if err != nil {
		return DetectResult{}, err
	}
	return t.Result(0), nil
}

// DetectBatch runs a batch of requests and returns their wire results in
// submit order (Seq = index into reqs). On intake failure mid-batch the
// already-submitted requests are cancelled and the intake error is returned.
func (s *Service) DetectBatch(ctx context.Context, reqs []DetectRequest) ([]DetectResult, error) {
	return runBatch(ctx, s, reqs, s.Submit, (*Task).Result)
}

// DetectStream runs a batch of requests and returns a channel delivering one
// wire result per request in completion order, with Seq carrying the
// submit-order position, so reassembling by Seq is byte-identical to
// DetectBatch. The channel is buffered for the whole batch (a slow consumer
// never blocks the stream) and closes after the last result. On intake
// failure mid-batch the already-submitted requests are cancelled and the
// intake error is returned.
func (s *Service) DetectStream(ctx context.Context, reqs []DetectRequest) (<-chan DetectResult, error) {
	return runStream(ctx, s, reqs, s.Submit, (*Task).Result)
}

// submitAll enqueues a whole batch under one derived context, one submit call
// per request; any intake failure cancels the requests already submitted. A
// batch that could never fit the queue is rejected up front as
// ErrBatchTooLarge.
func submitAll[Q any](ctx context.Context, s *Service, reqs []Q, submit func(context.Context, Q) (*Task, error)) ([]*Task, context.CancelFunc, error) {
	if s.queueLimit > 0 && len(reqs) > s.queueLimit {
		return nil, nil, ErrBatchTooLarge
	}
	cctx, cancel := context.WithCancel(ctx)
	tasks := make([]*Task, len(reqs))
	for i, req := range reqs {
		t, err := submit(cctx, req)
		if err != nil {
			cancel()
			return nil, nil, err
		}
		tasks[i] = t
	}
	return tasks, cancel, nil
}

// runBatch submits a batch and renders every task, in submit order, under its
// batch index. It is the body of DetectBatch and MatchBatch.
func runBatch[Q, R any](ctx context.Context, s *Service, reqs []Q, submit func(context.Context, Q) (*Task, error), render func(*Task, int) R) ([]R, error) {
	tasks, cancel, err := submitAll(ctx, s, reqs, submit)
	if err != nil {
		return nil, err
	}
	defer cancel()
	out := make([]R, len(tasks))
	for i, t := range tasks {
		out[i] = render(t, i)
	}
	return out, nil
}

// runStream submits a batch and delivers every task's rendering, under its
// batch index, on a channel buffered for the whole batch, in completion
// order; the channel closes after the last one. It is the body of
// DetectStream and MatchStream.
func runStream[Q, R any](ctx context.Context, s *Service, reqs []Q, submit func(context.Context, Q) (*Task, error), render func(*Task, int) R) (<-chan R, error) {
	tasks, cancel, err := submitAll(ctx, s, reqs, submit)
	if err != nil {
		return nil, err
	}
	out := make(chan R, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out <- render(t, i)
		}()
	}
	go func() {
		wg.Wait()
		cancel()
		close(out)
	}()
	return out, nil
}

// --- in-process blessed path ---

// Compile translates a C source file into SSA form and binds the resulting
// Program to this service, so its Detect calls run on the service's shared
// engine and memo cache.
func (s *Service) Compile(ctx context.Context, name, source string) (*Program, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mod, err := cc.Compile(name, source)
	if err != nil {
		return nil, err
	}
	return &Program{Module: mod, svc: s}, nil
}

// DetectProgram detects idioms in an already-compiled program through the
// service's stream (idioms empty = the default set). This is the single
// in-process path from a Program to a Detection; Program.Detect and
// Program.DetectOnly are thin wrappers over it.
func (s *Service) DetectProgram(ctx context.Context, p *Program, idms ...string) (*Detection, error) {
	roster, _, err := s.resolve("", idms)
	if err != nil {
		return nil, err
	}
	t, err := s.submit(ctx, DetectRequest{}, nil, detect.Submission{Mod: p.Module, Roster: roster})
	if err != nil {
		return nil, err
	}
	if err := t.Err(); err != nil {
		return nil, err
	}
	return wrapDetection(t.res), nil
}

// --- introspection ---

// IdiomInfo describes one detectable idiom for roster introspection
// (GET /v1/idioms).
type IdiomInfo struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	// Default marks idioms in the paper's evaluated set, detected when a
	// request names none.
	Default bool `json:"default"`
	// Extension marks §9 future-work idioms, detected only when named.
	Extension bool `json:"extension"`
	// Scheme and Kind carry a pack idiom's transform strategy and offload
	// kind. The built-in roster leaves them out: its idioms declare them in
	// the built-in pack, but the v1 listing of that roster never carried
	// them.
	Scheme string `json:"scheme,omitempty"`
	Kind   string `json:"kind,omitempty"`
}

// Idioms reports the built-in pack's roster in precedence order.
func (s *Service) Idioms() []IdiomInfo {
	p, err := idioms.Builtin()
	if err != nil {
		return nil
	}
	var out []IdiomInfo
	for _, idm := range p.Idioms {
		out = append(out, IdiomInfo{
			Name:      idm.Name,
			Class:     idm.Class.String(),
			Default:   !idm.Extension,
			Extension: idm.Extension,
		})
	}
	return out
}

// StatsSchemaVersion is the current StatsResponse schema number, bumped on
// any incompatible change to the /statsz payload. v2 added the prescreen
// gauges (prune_mode, prune_skipped, prune_reordered, prescreen_ns_total)
// and the memo cost-table size (memo.cost_entries). v3 added the
// persistence block (store.*: blob gauge, spill hit/miss, sync spills,
// pack-log counters). v4 added the adaptive split-scheduling gauges. v5
// removed intra-solve splitting and with it all seven split fields
// (solve_split, solve_branch_active, the re-split depth and the four
// split-decision gauges). v6 moved compile behind the detect-slot gate:
// compile_workers and the per-client intake_queue are gone, ready_queue
// counts uncompiled requests waiting for a slot, compile_queue counts
// admitted requests still compiling, and detect_slots is never -1. v7
// removed the prescreen scheduler and with it prune_mode, prune_skipped,
// prune_reordered, prescreen_ns_total, memo.cost_entries and the near-miss
// skipped flag. v8 moved client fairness into the solver pool's task queue
// and compile onto that pool: detect_slots and detect_active are gone,
// ready_queue (global and per client) counts stage tasks queued in the pool,
// compile_queue counts requests whose compile task is queued or running, and
// panics counts pool tasks that panicked. v9 replaced the pack log with one
// file per registered pack name: store.packs_logged and
// store.packs_abandoned are gone, and store.packs_replayed counts the packs
// restored at boot.
const StatsSchemaVersion = 9

// StatsResponse is the versioned /statsz wire payload: queue depth, worker
// utilization, memoization state and per-client fairness gauges. Fields are
// append-only within a schema version; see README ("Auth & fairness") for
// field-by-field documentation.
type StatsResponse struct {
	// Schema is the payload's schema version (StatsSchemaVersion).
	Schema int `json:"schema"`
	// InFlight is the number of requests submitted but not yet finished;
	// QueueLimit is the intake bound they count against (0 = unbounded).
	InFlight   int `json:"in_flight"`
	QueueLimit int `json:"queue_limit"`
	// CompileQueue counts requests whose compile task is queued or running.
	CompileQueue int `json:"compile_queue"`
	// SolveActive / SolveWorkers is the solver-pool utilization gauge.
	SolveWorkers int `json:"solve_workers"`
	SolveActive  int `json:"solve_active"`
	// ReadyQueue counts stage tasks (compile, analysis, solve) queued in
	// the solver pool, not yet running.
	ReadyQueue int `json:"ready_queue"`
	// Panics counts pool tasks that panicked; each failed only its own
	// request, in-band.
	Panics int64 `json:"panics"`
	// PruneSkipped and PruneReordered are always 0 and never on the wire.
	//
	// Deprecated: the prescreen scheduler they counted is gone. Their last
	// reader is perfbench's fleet-churn counters; delete them when it stops
	// reading them.
	PruneSkipped, PruneReordered int64 `json:"-"`
	// Submitted and Completed are cumulative request counts.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	// Packs is the number of currently registered idiom packs.
	Packs int `json:"packs"`
	// Memo is the solve-cache snapshot (hit rate, entries, evictions).
	Memo MemoSnapshot `json:"memo"`
	// Store is the persistence block (schema v3): disk-spill and pack
	// restore gauges, zero-valued with Enabled false when the service runs
	// without a state dir.
	Store StoreStats `json:"store"`
	// Clients holds one fairness row per tenant seen since start, in
	// first-seen order (the anonymous tier appears with an empty name).
	Clients []ClientStatsRow `json:"clients,omitempty"`
}

// Stats reports current service load.
func (s *Service) Stats() StatsResponse {
	ss := s.stream.Stats()
	out := StatsResponse{
		Schema:       StatsSchemaVersion,
		QueueLimit:   s.queueLimit,
		CompileQueue: ss.Compiling,
		SolveWorkers: s.eng.Workers(),
		SolveActive:  ss.Active,
		ReadyQueue:   ss.Queued,
		Panics:       ss.Panics,
		Packs:        len(s.reg.Packs()),
		Memo:         s.memoSnapshot(),
		Store:        s.storeStats(),
	}
	s.mu.Lock()
	out.Submitted, out.Completed = s.submitted, s.completed
	out.InFlight = int(s.submitted - s.completed)
	for _, cs := range s.clientOrder {
		out.Clients = append(out.Clients, ClientStatsRow{
			Name:       cs.name,
			Weight:     cs.weight,
			InFlight:   cs.inFlight,
			ReadyQueue: ss.Clients[cs.name],
			Served:     cs.served,
			Shed:       cs.shed,
		})
	}
	s.mu.Unlock()
	return out
}

func (s *Service) memoSnapshot() MemoSnapshot {
	hits, misses := s.eng.MemoStats()
	out := MemoSnapshot{Hits: hits, Misses: misses}
	if hits+misses > 0 {
		out.HitRate = float64(hits) / float64(hits+misses)
	}
	if s.memo != nil {
		out.Entries = s.memo.Len()
		out.Evictions = s.memo.Evictions()
		out.MaxEntries = s.memo.MaxEntries()
	}
	return out
}

// Elapsed converts a wire result's nanosecond timing back to a Duration.
func (r *DetectResult) Elapsed() time.Duration { return time.Duration(r.ElapsedNs) }

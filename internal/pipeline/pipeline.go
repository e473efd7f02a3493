// Package pipeline streams modules through the paper's compile → detect flow
// without the historical two-barrier shape (compile all workloads, then hand
// the whole batch to detect.Modules). A Pipeline is long-lived: sources enter
// via Submit as compile thunks, a compile worker pool fans the frontend out,
// and each compiled module feeds straight into the detection engine's shared
// solver pool (detect.Stream), so frontend and solver work overlap instead of
// barriering. Each job completes on its own: await it with Job.Done or
// Job.Wait, or gather a batch in submit order with Collect.
//
// Determinism: detection inherits detect.Stream's guarantees, so every job's
// result is byte-identical (instances and solver steps) to detect.Modules
// over the same batch at any worker count. Each Result's Elapsed is the
// module's true wall time, compile-start → merge-done.
//
// Serving controls: SubmitOpts threads a context through the whole
// compile→solve path (cancelled jobs shed their remaining work and finish
// with the context error), Options.MaxQueue bounds intake (ErrOverloaded),
// and Stats exposes queue depth and pool utilization — the hooks the
// idiomatic.Service front door builds on.
//
// Multi-tenant fairness: SubmitOptions.Client names the tenant, and both
// contended stages — compile intake and solver admission (Options.
// DetectSlots) — are served by weighted deficit round-robin over per-client
// queues, so one client's backlog cannot delay another tenant's modules.
// Named clients are additionally subject to per-client in-flight bounds
// (Options.ClientQueue) and token buckets (Options.ClientRate); the
// anonymous tier is exempt and so preserves the single-tenant contract
// exactly.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/ir"
)

// ErrClosed is returned by SubmitOpts after Close: the pipeline no longer
// accepts work.
var ErrClosed = errors.New("pipeline: closed")

// ErrOverloaded is returned by SubmitOpts when Options.MaxQueue in-flight
// jobs already occupy the pipeline — the intake backpressure signal a
// serving front door translates into HTTP 429.
var ErrOverloaded = errors.New("pipeline: overloaded (submit queue full)")

// CompileFunc produces one module — typically a closure over cc.Compile or a
// workload's Compile method. It runs on a pipeline compile worker.
type CompileFunc func() (*ir.Module, error)

// Options configure a Pipeline.
type Options struct {
	// Engine is the detection engine to stream into; nil builds one from
	// Detect. Sharing one engine across pipelines shares its solver memo
	// accounting.
	Engine *detect.Engine
	// Detect configures the engine built when Engine is nil.
	Detect detect.Options
	// CompileWorkers bounds the frontend pool. Zero or negative means the
	// engine's worker count, mirroring the solver pool shape.
	CompileWorkers int
	// MaxQueue bounds the number of in-flight jobs (submitted, not yet
	// finished). Submissions beyond the bound fail fast with ErrOverloaded
	// instead of queueing without limit. Zero or negative means unbounded.
	MaxQueue int
	// ClientQueue bounds each named client's in-flight jobs, independent of
	// the global MaxQueue. A named client at its bound gets a per-client
	// ErrOverloaded; the anonymous tier is exempt. Zero or negative means
	// unbounded.
	ClientQueue int
	// ClientRate, when positive, enables a token bucket per named client:
	// ClientRate*weight submissions per second sustained, bursting to
	// ClientBurst. Submissions on an empty bucket fail fast with a
	// *RateLimitedError. The anonymous tier is exempt.
	ClientRate float64
	// ClientBurst is the token-bucket capacity (defaults to max(1,
	// ClientRate) when zero).
	ClientBurst float64
	// DetectSlots bounds how many compiled modules occupy the solver stream
	// at once; further modules wait in per-client ready queues and enter via
	// weighted-fair dequeue as slots free, so fairness decisions happen at
	// the solver's door on every completion. Zero means 2x the solver worker
	// count; negative means unbounded (the pre-fairness behavior of handing
	// every compiled module to the stream immediately).
	DetectSlots int
}

// SubmitOptions carry the per-job controls of SubmitOpts.
type SubmitOptions struct {
	// Ctx, when non-nil, cancels the job: a job still queued skips its
	// compile, and one already solving aborts mid-search (see
	// detect.Submission). The job then finishes with Ctx.Err().
	Ctx context.Context
	// Idioms restricts this job's detection to the named idioms, with the
	// same order-is-precedence semantics as detect.Options.Idioms. Nil means
	// the engine's full roster.
	Idioms []string
	// Roster, when non-nil, overrides Idioms with an explicit resolved
	// (idiom, problem) roster — the per-request idiom-pack path (see
	// detect.Submission.Roster).
	Roster []detect.Resolved
	// Client names the tenant submitting the job. Named clients compete for
	// compile workers and solver slots under deficit round-robin, weighted by
	// Weight, and are subject to Options.ClientQueue / ClientRate. The empty
	// name is the anonymous tier: it rides the same rings but is exempt from
	// per-client caps and buckets.
	Client string
	// Weight is the client's fair-share weight (jobs served per DRR round
	// while backlogged). Zero or negative means 1.
	Weight int
	// Explain requests near-miss diagnostics on the job's Result (see
	// detect.Submission.Explain).
	Explain bool
}

// Job tracks one submitted module through the pipeline. Seq is the submit
// order; Mod, Res and Err are valid once Done is closed.
type Job struct {
	Seq  int
	Name string
	// Mod is the compiled module (nil when compilation failed).
	Mod *ir.Module
	// Res is the detection result (nil when Err is set).
	Res *detect.Result
	Err error

	compile CompileFunc
	ctx     context.Context // nil = never cancelled
	idioms  []string
	roster  []detect.Resolved
	explain bool
	cs      *clientState
	start   time.Time // compile start; anchors Result.Elapsed
	shed    bool      // cancelled in queue / rejected, not served
	done    chan struct{}
}

// Done is closed when the job has fully completed (or failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes and returns its result.
func (j *Job) Wait() (*detect.Result, error) {
	<-j.done
	return j.Res, j.Err
}

// Pipeline is the streaming compile→detect front door. Submit never blocks
// on pipeline work, and jobs complete independently: await an individual
// job's Done/Wait, or Collect a batch.
type Pipeline struct {
	eng            *detect.Engine
	stream         *detect.Stream
	compileWorkers int
	maxQueue       int

	mu      sync.Mutex
	cond    *sync.Cond // signals compile intake
	nextSeq int
	closed  bool

	// Weighted-fair state: per-client intake and ready queues served by two
	// independent deficit-round-robin rings (compile pick, solver dispatch),
	// plus the solver slot gate. All guarded by mu.
	clients     map[string]*clientState
	clientOrder []*clientState // first-seen order, the DRR ring
	intakeCur   int            // DRR cursor over compile intake
	readyCur    int            // DRR cursor over solver dispatch
	intakeCount int            // total jobs across all intake queues
	readyCount  int            // total jobs across all ready queues
	slotsUsed   int            // modules currently occupying the stream
	detectSlots int            // resolved slot bound (<0 = unbounded)
	clientQueue int
	clientRate  float64
	clientBurst float64

	inflight             sync.WaitGroup // submitted jobs not yet finished
	submitted, completed atomic.Int64
}

// New builds and starts a pipeline.
func New(o Options) (*Pipeline, error) {
	eng := o.Engine
	if eng == nil {
		var err error
		eng, err = detect.NewEngine(o.Detect)
		if err != nil {
			return nil, err
		}
	}
	slots := o.DetectSlots
	if slots == 0 {
		slots = 2 * eng.Workers()
	}
	burst := o.ClientBurst
	if o.ClientRate > 0 && burst <= 0 {
		burst = o.ClientRate
		if burst < 1 {
			burst = 1
		}
	}
	p := &Pipeline{
		eng:         eng,
		stream:      eng.Stream(),
		maxQueue:    o.MaxQueue,
		clients:     map[string]*clientState{},
		detectSlots: slots,
		clientQueue: o.ClientQueue,
		clientRate:  o.ClientRate,
		clientBurst: burst,
	}
	p.cond = sync.NewCond(&p.mu)
	workers := o.CompileWorkers
	if workers <= 0 {
		workers = eng.Workers()
	}
	p.compileWorkers = workers
	for w := 0; w < workers; w++ {
		go p.compileWorker()
	}
	return p, nil
}

// Engine exposes the detection engine (for memo statistics and sharing).
func (p *Pipeline) Engine() *detect.Engine { return p.eng }

// Submit enqueues one compile thunk and returns its Job immediately. It
// panics after Close (legacy contract); bounded or cancellable intake goes
// through SubmitOpts.
func (p *Pipeline) Submit(name string, compile CompileFunc) *Job {
	job, err := p.SubmitOpts(name, compile, SubmitOptions{})
	if err != nil {
		panic(err.Error()) // errors already carry the "pipeline:" prefix
	}
	return job
}

// SubmitOpts enqueues one compile thunk with per-job controls and returns
// its Job immediately. It fails fast with ErrClosed after Close, with
// ErrOverloaded when Options.MaxQueue jobs are already in flight (or the
// named client sits at its Options.ClientQueue bound), and with a
// *RateLimitedError when the named client's token bucket is empty; it never
// blocks on pipeline work.
func (p *Pipeline) SubmitOpts(name string, compile CompileFunc, so SubmitOptions) (*Job, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	cs := p.clientFor(so.Client, so.Weight)
	if p.maxQueue > 0 && p.submitted.Load()-p.completed.Load() >= int64(p.maxQueue) {
		cs.shed.Add(1)
		p.mu.Unlock()
		return nil, ErrOverloaded
	}
	// Per-client admission applies to named tenants only: the anonymous tier
	// keeps the exact pre-auth intake contract.
	if cs.name != "" {
		if p.clientQueue > 0 && cs.inFlight.Load() >= int64(p.clientQueue) {
			cs.shed.Add(1)
			p.mu.Unlock()
			return nil, fmt.Errorf("pipeline: client %q at queue bound %d: %w", cs.name, p.clientQueue, ErrOverloaded)
		}
		if p.clientRate > 0 {
			if ok, retry := cs.takeToken(p.clientRate, p.clientBurst, time.Now()); !ok {
				cs.shed.Add(1)
				p.mu.Unlock()
				return nil, &RateLimitedError{Client: cs.name, RetryAfter: retry}
			}
		}
	}
	job := &Job{
		Seq: p.nextSeq, Name: name,
		compile: compile, ctx: so.Ctx, idioms: so.Idioms, roster: so.Roster,
		explain: so.Explain,
		cs:      cs,
		done:    make(chan struct{}),
	}
	p.nextSeq++
	p.submitted.Add(1)
	p.inflight.Add(1)
	cs.inFlight.Add(1)
	cs.intake = append(cs.intake, job)
	p.intakeCount++
	p.cond.Signal()
	p.mu.Unlock()
	return job, nil
}

// Stats is a point-in-time snapshot of pipeline load, consumed by the
// serving layer's /statsz endpoint.
type Stats struct {
	// Submitted and Completed are cumulative job counts.
	Submitted, Completed int64
	// InFlight is Submitted - Completed: jobs compiling, solving, or queued.
	InFlight int
	// CompileQueue is the number of jobs waiting for a compile worker.
	CompileQueue int
	// CompileWorkers and SolveWorkers are the two pool sizes; SolveActive is
	// how many solver-pool workers are executing a task right now.
	CompileWorkers, SolveWorkers, SolveActive int
	// MaxQueue is the configured intake bound (0 = unbounded).
	MaxQueue int
	// ReadyQueue is the number of compiled modules waiting for a solver slot
	// across all clients; DetectSlots is the configured slot bound (-1 =
	// unbounded) and DetectActive how many slots are occupied right now.
	ReadyQueue, DetectSlots, DetectActive int
	// PruneMode is the engine's similarity-prescreen mode ("off", "reorder",
	// "on"). PruneSkipped counts solves skipped as provably unmatchable,
	// PruneReordered counts solves displaced from natural order by the
	// scheduler, and PrescreenNs is cumulative time spent extracting features
	// and scoring — the overhead the prescreen must keep negligible.
	PruneMode      string
	PruneSkipped   int64
	PruneReordered int64
	PrescreenNs    int64
	// Clients holds one row per tenant the pipeline has seen, in first-seen
	// order (the anonymous tier appears as the empty name).
	Clients []ClientStats
}

// Stats reports current pipeline load.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	queued := p.intakeCount
	ready := p.readyCount
	slots := p.slotsUsed
	rows := make([]ClientStats, 0, len(p.clientOrder))
	for _, cs := range p.clientOrder {
		rows = append(rows, ClientStats{
			Name:        cs.name,
			Weight:      cs.weight,
			InFlight:    cs.inFlight.Load(),
			IntakeQueue: len(cs.intake),
			ReadyQueue:  len(cs.ready),
			Served:      cs.served.Load(),
			Shed:        cs.shed.Load(),
		})
	}
	p.mu.Unlock()
	sub, comp := p.submitted.Load(), p.completed.Load()
	skipped, reordered, prescreenNs := p.eng.PruneStats()
	return Stats{
		Submitted:      sub,
		Completed:      comp,
		InFlight:       int(sub - comp),
		CompileQueue:   queued,
		CompileWorkers: p.compileWorkers,
		SolveWorkers:   p.eng.Workers(),
		SolveActive:    p.stream.Active(),
		MaxQueue:       p.maxQueue,
		ReadyQueue:     ready,
		DetectSlots:    p.detectSlots,
		DetectActive:   slots,
		PruneMode:      p.eng.Prune().String(),
		PruneSkipped:   skipped,
		PruneReordered: reordered,
		PrescreenNs:    prescreenNs,
		Clients:        rows,
	}
}

// Close stops intake; in-flight jobs still complete, and the solver pool
// stops once they drain. Close does not block and is idempotent.
func (p *Pipeline) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	go func() {
		p.inflight.Wait()
		p.stream.Close()
	}()
}

// Collect waits for the given jobs and returns their results in the given
// (typically submit) order, failing on the first job error.
func Collect(jobs []*Job) ([]*detect.Result, error) {
	out := make([]*detect.Result, len(jobs))
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.Name, err)
		}
		out[i] = res
	}
	return out, nil
}

func (p *Pipeline) compileWorker() {
	for {
		p.mu.Lock()
		for p.intakeCount == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.intakeCount == 0 {
			p.mu.Unlock()
			return
		}
		job := drrPick(p.clientOrder, &p.intakeCur, intakeQ, intakeDef)
		p.intakeCount--
		p.mu.Unlock()

		// A job cancelled while waiting for a worker sheds its compile (and
		// detection) entirely.
		if job.ctx != nil {
			if err := job.ctx.Err(); err != nil {
				job.Err = err
				job.shed = true
				p.finish(job)
				continue
			}
		}
		job.start = time.Now()
		mod, err := job.compile()
		if err != nil {
			job.Err = err
			p.finish(job)
			continue
		}
		job.Mod = mod
		// Compiled modules queue per client for a solver slot; dispatch moves
		// them into the stream under weighted-fair order as slots allow.
		p.mu.Lock()
		job.cs.ready = append(job.cs.ready, job)
		p.readyCount++
		p.dispatchLocked()
		p.mu.Unlock()
	}
}

// dispatchLocked moves compiled jobs from the per-client ready queues into
// the solver stream while detect slots remain, picking clients by deficit
// round-robin — the fairness decision happens at the solver's door on every
// admission. Each admitted job detects on its own goroutine; jobs cancelled
// while waiting are shed without consuming a slot. Callers hold p.mu.
func (p *Pipeline) dispatchLocked() {
	for p.readyCount > 0 && (p.detectSlots < 0 || p.slotsUsed < p.detectSlots) {
		job := drrPick(p.clientOrder, &p.readyCur, readyQ, readyDef)
		if job == nil {
			break
		}
		p.readyCount--
		if job.ctx != nil {
			if err := job.ctx.Err(); err != nil {
				job.Err = err
				job.shed = true
				p.finish(job)
				continue
			}
		}
		p.slotsUsed++
		go p.detect(job)
	}
}

// detect runs one admitted job through the solver stream. Its completion
// frees the detect slot and re-runs dispatch — so the next fair-share pick
// enters the stream — before the job's Done closes.
func (p *Pipeline) detect(job *Job) {
	job.Res, job.Err = p.stream.Detect(detect.Submission{
		Mod: job.Mod, Start: job.start, Ctx: job.ctx, Idioms: job.idioms, Roster: job.roster,
		Client: job.cs.name, Explain: job.explain,
	})
	p.mu.Lock()
	p.slotsUsed--
	p.dispatchLocked()
	p.mu.Unlock()
	p.finish(job)
}

func (p *Pipeline) finish(job *Job) {
	p.completed.Add(1)
	job.cs.inFlight.Add(-1)
	if job.shed {
		job.cs.shed.Add(1)
	} else {
		job.cs.served.Add(1)
	}
	close(job.done)
	p.inflight.Done()
}

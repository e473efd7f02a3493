// Package pipeline streams modules through the paper's compile → detect flow
// without the historical two-barrier shape (compile all workloads, then hand
// the whole batch to detect.Modules). A Pipeline is long-lived: sources enter
// via SubmitOpts as compile thunks and wait, uncompiled, in their client's
// queue for a detect slot (Options.DetectSlots). An admitted job compiles on
// its own goroutine and feeds straight into the detection engine's shared
// solver pool (detect.Stream), holding its slot from compile start to merge,
// so one job's frontend work overlaps other jobs' solves. Each job completes
// on its own: await it with Job.Done or Job.Wait.
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
// Multi-tenant fairness: SubmitOptions.Client names the tenant, and the one
// admission point — the detect-slot gate — is served by weighted deficit
// round-robin over per-client queues, so one client's backlog cannot delay
// another tenant's modules. Named clients are additionally subject to
// per-client in-flight bounds (Options.ClientQueue) and token buckets
// (Options.ClientRate); the anonymous tier is exempt and so preserves the
// single-tenant contract exactly.
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
// workload's Compile method. It runs on the admitted job's goroutine, inside
// its detect slot.
type CompileFunc func() (*ir.Module, error)

// Options configure a Pipeline.
type Options struct {
	// Engine is the detection engine to stream into; nil builds one from
	// Detect. Sharing one engine across pipelines shares its solver memo
	// accounting.
	Engine *detect.Engine
	// Detect configures the engine built when Engine is nil.
	Detect detect.Options
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
	// DetectSlots bounds how many jobs are admitted at once; an admitted job
	// holds its slot through compile and detection. Further jobs wait,
	// uncompiled, in per-client queues and enter via weighted-fair dequeue as
	// slots free, so fairness decisions happen on every completion. Zero
	// means 2x the solver worker count; New rejects a negative value.
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
	// detect slots under deficit round-robin, weighted by Weight, and are
	// subject to Options.ClientQueue / ClientRate. The empty name is the
	// anonymous tier: it rides the same ring but is exempt from per-client
	// caps and buckets.
	Client string
	// Weight is the client's fair-share weight (jobs served per DRR round
	// while backlogged). Zero or negative means 1.
	Weight int
	// Explain requests near-miss diagnostics on the job's Result (see
	// detect.Submission.Explain).
	Explain bool
}

// Job tracks one submitted module through the pipeline. Mod, Res and Err
// are valid once Done is closed.
type Job struct {
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

// Pipeline is the streaming compile→detect front door. SubmitOpts never
// blocks on pipeline work, and jobs complete independently: await an
// individual job's Done/Wait.
type Pipeline struct {
	eng      *detect.Engine
	stream   *detect.Stream
	maxQueue int

	mu     sync.Mutex
	closed bool

	// Weighted-fair state: per-client queues served by one deficit-round-
	// robin ring at the detect-slot gate. All guarded by mu.
	clients     map[string]*clientState
	clientOrder []*clientState // first-seen order, the DRR ring
	cur         int            // DRR cursor
	queued      int            // total jobs across all client queues
	slotsUsed   int            // admitted jobs, compiling or detecting
	detectSlots int
	clientQueue int
	clientRate  float64
	clientBurst float64

	inflight                        sync.WaitGroup // submitted jobs not yet finished
	submitted, completed, compiling atomic.Int64
}

// New builds and starts a pipeline.
func New(o Options) (*Pipeline, error) {
	if o.DetectSlots < 0 {
		return nil, fmt.Errorf("pipeline: DetectSlots %d is negative (0 means 2x the solver workers)", o.DetectSlots)
	}
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
	return p, nil
}

// Engine exposes the detection engine (for memo statistics and sharing).
func (p *Pipeline) Engine() *detect.Engine { return p.eng }

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
		Name:    name,
		compile: compile, ctx: so.Ctx, idioms: so.Idioms, roster: so.Roster,
		explain: so.Explain,
		cs:      cs,
		done:    make(chan struct{}),
	}
	p.submitted.Add(1)
	p.inflight.Add(1)
	cs.inFlight.Add(1)
	cs.queue = append(cs.queue, job)
	p.queued++
	p.dispatchLocked()
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
	// CompileQueue is the number of admitted jobs still compiling.
	CompileQueue int
	// SolveWorkers is the solver pool size; SolveActive is how many of its
	// workers are executing a task right now.
	SolveWorkers, SolveActive int
	// MaxQueue is the configured intake bound (0 = unbounded).
	MaxQueue int
	// ReadyQueue is the number of jobs waiting, uncompiled, for a detect slot
	// across all clients; DetectSlots is the slot bound and DetectActive how
	// many slots are occupied right now.
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
	ready := p.queued
	slots := p.slotsUsed
	compiling := p.compiling.Load()
	rows := make([]ClientStats, 0, len(p.clientOrder))
	for _, cs := range p.clientOrder {
		rows = append(rows, ClientStats{
			Name:       cs.name,
			Weight:     cs.weight,
			InFlight:   cs.inFlight.Load(),
			ReadyQueue: len(cs.queue),
			Served:     cs.served.Load(),
			Shed:       cs.shed.Load(),
		})
	}
	p.mu.Unlock()
	sub, comp := p.submitted.Load(), p.completed.Load()
	skipped, reordered, prescreenNs := p.eng.PruneStats()
	return Stats{
		Submitted:      sub,
		Completed:      comp,
		InFlight:       int(sub - comp),
		CompileQueue:   int(compiling),
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
	p.mu.Unlock()
	go func() {
		p.inflight.Wait()
		p.stream.Close()
	}()
}

// dispatchLocked admits queued jobs while detect slots remain, picking
// clients by deficit round-robin — the fairness decision happens on every
// submission and every completion. Each admitted job compiles and detects on
// its own goroutine; jobs cancelled while waiting are shed without consuming
// a slot or running their compile. Callers hold p.mu.
func (p *Pipeline) dispatchLocked() {
	for p.queued > 0 && p.slotsUsed < p.detectSlots {
		job := drrPick(p.clientOrder, &p.cur)
		if job == nil {
			break
		}
		p.queued--
		if job.ctx != nil {
			if err := job.ctx.Err(); err != nil {
				job.Err = err
				job.shed = true
				p.finish(job)
				continue
			}
		}
		p.slotsUsed++
		p.compiling.Add(1)
		go p.run(job)
	}
}

// run compiles one admitted job and detects it through the solver stream.
// Its completion, on success or compile error alike, frees the detect slot
// and re-runs dispatch — so the next fair-share pick is admitted — before
// the job's Done closes.
func (p *Pipeline) run(job *Job) {
	job.start = time.Now()
	mod, err := job.compile()
	p.compiling.Add(-1)
	if err != nil {
		job.Err = err
	} else {
		job.Mod = mod
		job.Res, job.Err = p.stream.Detect(detect.Submission{
			Mod: mod, Start: job.start, Ctx: job.ctx, Idioms: job.idioms, Roster: job.roster,
			Client: job.cs.name, Explain: job.explain,
		})
	}
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

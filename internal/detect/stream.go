package detect

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/ir"
	"repro/internal/similarity"
)

// Submission describes one module entering a Stream.
type Submission struct {
	Mod *ir.Module
	// Start is the wall-clock origin of the module's Result.Elapsed; the zero
	// value means "now". A compile→detect pipeline passes its compile start
	// time so the reported elapsed spans compile-start → merge-done.
	Start time.Time
	// Ctx, when non-nil, cancels the submission: queued stage tasks become
	// no-ops, in-flight backtracking searches abort at their next poll, and
	// Detect returns Ctx.Err(). A nil Ctx never cancels.
	Ctx context.Context
	// Deadline, when non-zero, is the submission's completion deadline. The
	// solver pool schedules deadlined stage tasks soonest-deadline-first,
	// ahead of deadline-free work, so a request that can still make its
	// deadline is never stuck behind open-ended traffic. Zero derives the
	// deadline from Ctx (context.WithDeadline reaches here automatically);
	// enforcement is still Ctx's — the deadline only orders the queue.
	Deadline time.Time
	// Client labels the submission with the tenant it belongs to (serving
	// layers thread the authenticated client name end-to-end). Purely
	// identifying: fairness between clients is the pipeline's intake job.
	Client string
	// Idioms restricts detection to the named idioms (resolved against the
	// engine's roster, in the order given — the same precedence semantics as
	// Options.Idioms on the sequential driver). Nil means the full roster.
	Idioms []string
	// Roster, when non-nil, overrides Idioms entirely: detection solves
	// exactly these (idiom, problem) pairs in the given precedence order —
	// the per-request pack path. The slice and the problems it references
	// must be immutable for the submission's lifetime (registry snapshots
	// are).
	Roster []Resolved
	// Explain requests near-miss diagnostics: the delivered Result carries
	// NearMisses for the top unmatched roster idioms (prescreen score,
	// dominant feature deltas, rejecting constraint family). Forces feature
	// extraction even when the engine's prune mode is off.
	Explain bool
}

// Stream is the incremental front door of an Engine: each Detect call runs
// one module and blocks until its Result is merged, while the (function ×
// idiom) solves of every in-flight call interleave over a single shared
// worker pool — the same pool shape Modules uses, without its whole-batch
// barrier. Callers choose their own concurrency by calling Detect from as
// many goroutines as they want modules in flight.
//
// Determinism: solves for one module land in a dense per-module grid and are
// merged serially in function order, exactly as in Modules, so every Detect
// result is byte-identical (instances and step counts) to Modules over the
// same module at any worker count. Unlike batch Modules, each Result carries
// its own wall time: from Submission.Start (compile start, when fed by a
// pipeline) to merge completion.
//
// Scheduling: stage tasks enter a deadline-ordered queue (earliest deadline
// first; deadline-free tasks after every deadlined one, FIFO among
// themselves), so under mixed traffic the pool prefers the work whose
// deadline is soonest. Determinism is unaffected: tasks write into dense
// per-module grids and merges are serial, so execution order never changes
// output bytes.
type Stream struct {
	eng *Engine

	// mu guards the stage-task queue (EDF order) and the two close flags.
	mu        sync.Mutex
	qcond     *sync.Cond
	taskQ     taskQueue
	taskOrder int64 // FIFO tiebreak for equal/absent deadlines
	closed    bool  // Close called: Detect panics
	stopped   bool  // in-flight calls drained: workers exit

	inflight sync.WaitGroup // Detect calls not yet returned
	workers  sync.WaitGroup // pool goroutines
	active   atomic.Int64   // workers currently executing a task
}

// streamTask is one queued stage task with its scheduling key.
type streamTask struct {
	fn       func()
	deadline time.Time // zero = no deadline (scheduled after all deadlined work)
	score    float64   // prescreen score; higher runs first within a deadline class
	cost     int64     // predicted solve ns; longer runs first among equal scores
	order    int64     // enqueue order, the FIFO tiebreak
}

// taskQueue is a min-heap over streamTask: soonest deadline first,
// deadline-free tasks last; within a deadline class, higher prescreen score
// first, then higher predicted cost (start the likely-longest solves early so
// the pool never discovers its critical path last), then enqueue order. With
// prescreening off every score and cost is zero and the queue degrades to the
// historical deadline-then-FIFO pool exactly.
type taskQueue []streamTask

func (q taskQueue) Len() int { return len(q) }
func (q taskQueue) Less(i, j int) bool {
	di, dj := q[i].deadline, q[j].deadline
	if di.IsZero() != dj.IsZero() {
		return !di.IsZero()
	}
	if !di.IsZero() && !di.Equal(dj) {
		return di.Before(dj)
	}
	if q[i].score != q[j].score {
		return q[i].score > q[j].score
	}
	if q[i].cost != q[j].cost {
		return q[i].cost > q[j].cost
	}
	return q[i].order < q[j].order
}
func (q taskQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *taskQueue) Push(x any)   { *q = append(*q, x.(streamTask)) }
func (q *taskQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = streamTask{}
	*q = old[:n-1]
	return t
}

// Stream starts a worker pool of the engine's configured size and returns a
// new Stream over it. Close the stream to release the pool.
func (e *Engine) Stream() *Stream {
	s := &Stream{eng: e}
	s.qcond = sync.NewCond(&s.mu)
	for w := 0; w < e.workers; w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				s.mu.Lock()
				for s.taskQ.Len() == 0 && !s.stopped {
					s.qcond.Wait()
				}
				if s.taskQ.Len() == 0 { // stopped and drained
					s.mu.Unlock()
					return
				}
				t := heap.Pop(&s.taskQ).(streamTask)
				s.mu.Unlock()
				s.active.Add(1)
				t.fn()
				s.active.Add(-1)
			}
		}()
	}
	return s
}

// Active reports how many pool workers are executing a task right now — the
// numerator of the serving layer's worker-utilization gauge (the denominator
// is the engine's Workers).
func (s *Stream) Active() int { return int(s.active.Load()) }

// Close stops intake, waits for in-flight Detect calls to return, then stops
// the worker pool. It is idempotent; it must not be called from inside a
// Detect call.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
	// Every call has returned, so every stage has joined and the task queue
	// is empty — wake the workers to observe the stop.
	s.mu.Lock()
	s.stopped = true
	s.qcond.Broadcast()
	s.mu.Unlock()
	s.workers.Wait()
}

// Detect runs one submission and blocks until its Result is merged: the same
// analyse → solve-grid → serial merge staging as Modules, with the stage
// tasks executed by the shared pool so concurrent calls interleave at
// (function × idiom) granularity. A cancelled context short-circuits the
// remaining stage tasks (queued ones become no-ops, running solves abort at
// their next poll) and Detect returns the context error instead of a Result,
// so the pool is freed promptly under load shedding. Detect panics after
// Close.
func (s *Stream) Detect(sub Submission) (*Result, error) {
	if sub.Start.IsZero() {
		sub.Start = time.Now()
	}
	if sub.Deadline.IsZero() && sub.Ctx != nil {
		if d, ok := sub.Ctx.Deadline(); ok {
			sub.Deadline = d
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("detect: Detect on closed Stream")
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	e := s.eng
	mod := sub.Mod
	var done <-chan struct{}
	ctxErr := func() error { return nil }
	if sub.Ctx != nil {
		done = sub.Ctx.Done()
		ctxErr = sub.Ctx.Err
	}
	if err := ctxErr(); err != nil {
		return nil, err
	}

	fns := mod.Functions
	infos := make([]*analysis.Info, len(fns))
	fps := make([]constraint.Fingerprint, len(fns))
	needFeats := e.prune != PruneOff || sub.Explain
	var feats []*similarity.Features
	if needFeats {
		feats = make([]*similarity.Features, len(fns))
	}
	// Analysis tasks of prescreened submissions outrank queued solve tasks of
	// other in-flight modules (score +Inf): finishing analysis is what lets
	// the scheduler see the module's scores at all.
	var ascores []float64
	if e.prune != PruneOff {
		ascores = make([]float64, len(fns))
		for i := range ascores {
			ascores[i] = math.Inf(1)
		}
	}
	s.stage(len(fns), sub.Deadline, ascores, nil, func(i int) {
		if cancelled(done) {
			return
		}
		infos[i] = analysis.Analyze(fns[i])
		fps[i] = e.fingerprint(infos[i])
		if needFeats {
			t0 := time.Now()
			feats[i] = similarity.Extract(infos[i])
			e.prescreenNs.Add(time.Since(t0).Nanoseconds())
		}
	})
	if err := ctxErr(); err != nil {
		return nil, err
	}

	ros := sub.Roster
	if ros == nil {
		ros = e.resolved(e.subset(sub.Idioms))
	}
	nIdioms := len(ros)
	grid := make([]idiomSolutions, len(fns)*nIdioms)
	var scores []float64
	var costs []int64
	if e.prune != PruneOff {
		pre := e.prescreen(feats, infos, ros)
		scores, costs = pre.scores, pre.costs
	}
	s.stage(len(grid), sub.Deadline, scores, costs, func(t int) {
		if cancelled(done) {
			return
		}
		fi, si := t/nIdioms, t%nIdioms
		if scores != nil {
			if skip, reason := e.pruneSkip(scores[t]); skip {
				grid[t] = idiomSolutions{idiom: ros[si].Idiom, skipped: true, skipReason: reason}
				return
			}
		}
		grid[t] = e.solveResolved(done, ros[si], infos[fi], fps[fi])
	})
	if err := ctxErr(); err != nil {
		return nil, err
	}

	res := &Result{}
	for i, fn := range fns {
		merge(fn, grid[i*nIdioms:(i+1)*nIdioms], res)
	}
	if sub.Explain {
		res.NearMisses = nearMisses(ros, fns, feats, res, e.prune == PruneOn)
	}
	res.Elapsed = time.Since(sub.Start)
	return res, nil
}

func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// stage enqueues f(0..n-1) onto the shared pool under the submission's
// deadline and waits for all of them. Tasks of concurrent stages (other
// modules) interleave freely, with soonest-deadline tasks scheduled first;
// results must be written by index into the submission's grids.
// scores[i]/costs[i] become task i's queue priority within its deadline class; either slice may
// be nil (all-zero keys — plain FIFO within the class).
func (s *Stream) stage(n int, deadline time.Time, scores []float64, costs []int64, f func(i int)) {
	if n == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	s.mu.Lock()
	for i := 0; i < n; i++ {
		t := streamTask{
			fn:       func() { defer wg.Done(); f(i) },
			deadline: deadline,
		}
		if scores != nil {
			t.score = scores[i]
		}
		if costs != nil {
			t.cost = costs[i]
		}
		s.taskOrder++
		t.order = s.taskOrder
		heap.Push(&s.taskQ, t)
	}
	s.qcond.Broadcast()
	s.mu.Unlock()
	wg.Wait()
}

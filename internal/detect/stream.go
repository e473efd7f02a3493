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

// StreamResult couples one streamed module's detection outcome with the
// sequence number its Submit call returned. Results arrive in completion
// order; reassembling them by Seq reproduces submit order. Err is non-nil
// when the submission's context was cancelled before detection completed.
type StreamResult struct {
	Seq    int
	Result *Result
	Err    error
}

// Submission describes one module entering a Stream.
type Submission struct {
	Mod *ir.Module
	// Start is the wall-clock origin of the module's Result.Elapsed; the zero
	// value means "now". A compile→detect pipeline passes its compile start
	// time so the reported elapsed spans compile-start → merge-done.
	Start time.Time
	// Ctx, when non-nil, cancels the submission: queued stage tasks become
	// no-ops, in-flight backtracking searches abort at their next poll, and
	// the StreamResult carries Ctx.Err(). A nil Ctx never cancels.
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

// Stream is the incremental front door of an Engine: modules are submitted
// one at a time and one Result per module is delivered on Results as soon as
// its merge completes, while the (function × idiom) solves of every in-flight
// module interleave over a single shared worker pool — the same pool shape
// Modules uses, without its whole-batch barrier.
//
// Determinism: solves for one module land in a dense per-module grid and are
// merged serially in function order, exactly as in Modules, so collecting a
// stream in submit order is byte-identical (instances and step counts) to
// Modules over the same batch at any worker count. Unlike batch Modules,
// each streamed Result carries its own wall time: from the start recorded at
// SubmitAt (compile start, when fed by a pipeline) to merge completion.
//
// Consumers must drain Results; in-flight modules block delivering onto it.
//
// Scheduling: stage tasks enter a deadline-ordered queue (earliest deadline
// first; deadline-free tasks after every deadlined one, FIFO among
// themselves), so under mixed traffic the pool prefers the work whose
// deadline is soonest. Determinism is unaffected: tasks write into dense
// per-module grids and merges are serial, so execution order never changes
// output bytes.
type Stream struct {
	eng     *Engine
	results chan StreamResult

	// qmu guards the stage-task queue (EDF order).
	qmu       sync.Mutex
	qcond     *sync.Cond
	taskQ     taskQueue
	taskOrder int64 // FIFO tiebreak for equal/absent deadlines
	qclosed   bool

	inflight sync.WaitGroup // submitted modules not yet delivered
	workers  sync.WaitGroup // pool goroutines
	active   atomic.Int64   // workers currently executing a task

	mu      sync.Mutex
	nextSeq int
	closed  bool
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
// new Stream over it. buffer is the capacity of the Results channel (0 means
// unbuffered). Close the stream to release the pool.
func (e *Engine) Stream(buffer int) *Stream {
	if buffer < 0 {
		buffer = 0
	}
	s := &Stream{
		eng:     e,
		results: make(chan StreamResult, buffer),
	}
	s.qcond = sync.NewCond(&s.qmu)
	for w := 0; w < e.workers; w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				s.qmu.Lock()
				for s.taskQ.Len() == 0 && !s.qclosed {
					s.qcond.Wait()
				}
				if s.taskQ.Len() > 0 {
					t := heap.Pop(&s.taskQ).(streamTask)
					s.qmu.Unlock()
					s.active.Add(1)
					t.fn()
					s.active.Add(-1)
					continue
				}
				s.qmu.Unlock() // closed and drained
				return
			}
		}()
	}
	return s
}

// Active reports how many pool workers are executing a task right now — the
// numerator of the serving layer's worker-utilization gauge (the denominator
// is the engine's Workers).
func (s *Stream) Active() int { return int(s.active.Load()) }

// Submit enqueues one module for detection and returns its sequence number.
// It never blocks on detection work.
func (s *Stream) Submit(mod *ir.Module) int {
	return s.SubmitJob(Submission{Mod: mod})
}

// SubmitAt is Submit with an explicit wall-clock start for the module's
// Result.Elapsed.
func (s *Stream) SubmitAt(mod *ir.Module, start time.Time) int {
	return s.SubmitJob(Submission{Mod: mod, Start: start})
}

// SubmitJob enqueues one submission (module, optional start time, optional
// cancellation context, optional idiom subset) and returns its sequence
// number. It never blocks on detection work.
func (s *Stream) SubmitJob(sub Submission) int {
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
		panic("detect: Submit on closed Stream")
	}
	seq := s.nextSeq
	s.nextSeq++
	s.inflight.Add(1)
	s.mu.Unlock()
	go s.detect(seq, sub)
	return seq
}

// Results delivers one StreamResult per submitted module, in completion
// order. The channel closes after Close once every in-flight module has been
// delivered.
func (s *Stream) Results() <-chan StreamResult {
	return s.results
}

// Close stops intake. Delivery of in-flight modules continues; the Results
// channel closes (and the worker pool exits) once they drain. Close does not
// block and is idempotent.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	go func() {
		s.inflight.Wait()
		// Every submission has delivered, so every stage has joined and the
		// task queue is empty — wake the workers to observe the close.
		s.qmu.Lock()
		s.qclosed = true
		s.qcond.Broadcast()
		s.qmu.Unlock()
		s.workers.Wait()
		close(s.results)
	}()
}

// detect orchestrates one module: the same analyse → solve-grid → serial
// merge staging as Modules, with the stage tasks executed by the shared pool
// so concurrent modules interleave at (function × idiom) granularity. A
// cancelled context short-circuits remaining stage tasks (queued ones become
// no-ops, running solves abort at their next poll) and delivers the context
// error instead of a Result, so the pool is freed promptly under load
// shedding.
func (s *Stream) detect(seq int, sub Submission) {
	defer s.inflight.Done()
	e := s.eng
	mod := sub.Mod
	var done <-chan struct{}
	ctxErr := func() error { return nil }
	if sub.Ctx != nil {
		done = sub.Ctx.Done()
		ctxErr = func() error { return sub.Ctx.Err() }
	}
	fail := func(err error) {
		s.results <- StreamResult{Seq: seq, Err: err}
	}
	if err := ctxErr(); err != nil {
		fail(err)
		return
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
	s.stageKeyed(len(fns), sub.Deadline, ascores, nil, func(i int) {
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
		fail(err)
		return
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
	s.stageKeyed(len(grid), sub.Deadline, scores, costs, func(t int) {
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
		fail(err)
		return
	}

	res := &Result{}
	for i, fn := range fns {
		merge(fn, grid[i*nIdioms:(i+1)*nIdioms], res)
	}
	if sub.Explain {
		res.NearMisses = nearMisses(ros, fns, feats, res, e.prune == PruneOn)
	}
	res.Elapsed = time.Since(sub.Start)
	s.results <- StreamResult{Seq: seq, Result: res}
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
// results must be written by index, as in Engine.run.
func (s *Stream) stage(n int, deadline time.Time, f func(i int)) {
	s.stageKeyed(n, deadline, nil, nil, f)
}

// stageKeyed is stage with per-task prescreen keys: scores[i]/costs[i] become
// task i's queue priority within its deadline class. Either slice may be nil
// (all-zero keys — plain FIFO within the class).
func (s *Stream) stageKeyed(n int, deadline time.Time, scores []float64, costs []int64, f func(i int)) {
	if n == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	s.qmu.Lock()
	for i := 0; i < n; i++ {
		i := i
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
	s.qmu.Unlock()
	wg.Wait()
}

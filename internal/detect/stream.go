package detect

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
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
	// Mod is an already-compiled module. When nil, Compile produces it.
	Mod *ir.Module
	// Compile produces the module when Mod is nil. The stream runs it as the
	// submission's first front-end task, on the shared pool and under the
	// same fair order as analysis and solves; its error fails the call.
	Compile func() (*ir.Module, error)
	// Start is the wall-clock origin of the module's Result.Elapsed; the zero
	// value means "when Detect is called".
	Start time.Time
	// Ctx, when non-nil, cancels the submission: queued stage tasks become
	// no-ops, in-flight backtracking searches abort at their next poll, and
	// Detect returns Ctx.Err(). A nil Ctx never cancels.
	Ctx context.Context
	// Deadline, when non-zero, is the submission's completion deadline. Within
	// its client's queue, deadlined tasks run soonest-deadline-first, ahead of
	// deadline-free work. Zero derives the deadline from Ctx
	// (context.WithDeadline reaches here automatically); enforcement is still
	// Ctx's — the deadline only orders the queue.
	Deadline time.Time
	// Client names the tenant the submission belongs to ("" is the anonymous
	// tier, a client like any other). Clients with queued tasks are served by
	// weighted deficit round-robin, Weight tasks per turn (zero or negative
	// means 1), so one client's backlog cannot starve another's.
	Client string
	Weight int
	// Roster is what detection solves: exactly these (idiom, problem) pairs,
	// in the given precedence order (see Resolve). Nil means the engine's
	// default roster. The slice and the problems it references must be
	// immutable for the submission's lifetime (packs are).
	Roster []Resolved
	// Explain requests near-miss diagnostics: the delivered Result carries
	// NearMisses for the top unmatched roster idioms (similarity score,
	// dominant feature deltas, rejecting constraint family). Only explained
	// submissions pay for feature extraction.
	Explain bool
}

// Stream is the incremental front door of an Engine: each Detect call runs
// one module — compile, analysis, (function × idiom) solves — and blocks
// until its Result is merged, while the tasks of every in-flight call
// interleave over a single shared worker pool. Callers choose their own
// concurrency by calling Detect from as many goroutines as they want
// modules in flight.
//
// Determinism: solves for one module land in a dense per-module grid and are
// merged serially in function order, exactly as in Modules, so every Detect
// result is byte-identical (instances and step counts) to Modules over the
// same module at any worker count. Unlike batch Modules, each Result carries
// its own wall time, from Submission.Start to merge completion.
//
// Scheduling: every (function × idiom) pair is solved. Each client with
// queued tasks has its own heap, and the pool serves those clients by
// weighted deficit round-robin, one task per pick; a client whose heap
// empties leaves the ring and keeps no deficit. Within a client's heap tasks
// are ordered by four keys: deadlined before deadline-free, then earliest
// deadline, then front-end tasks (compile, analysis) before solves, then
// FIFO. So a deadline only reorders its own client's work and never
// outranks fairness, and a newly arrived module's front end never waits
// behind the queued solves of its client's modules already in flight.
// Determinism is unaffected: execution order never changes output bytes.
//
// Containment: the worker loop recovers a panicking task. Only that task's
// submission fails, with an "internal error" from Detect; its remaining
// tasks become no-ops, and a panicking solve never reaches the memo.
type Stream struct {
	eng *Engine

	// mu guards the client ring, its heaps and the two close flags.
	mu        sync.Mutex
	qcond     *sync.Cond
	clients   map[string]*clientQueue // clients with queued tasks
	ring      []*clientQueue          // the same clients, in DRR order
	cur       int                     // DRR cursor into ring
	queued    int                     // tasks queued across all clients
	taskOrder int64                   // FIFO tiebreak for equal/absent deadlines
	closed    bool                    // Close called: Detect panics
	stopped   bool                    // in-flight calls drained: workers exit

	inflight  sync.WaitGroup // Detect calls not yet returned
	workers   sync.WaitGroup // pool goroutines
	active    atomic.Int64   // workers currently executing a task
	compiling atomic.Int64   // submissions whose compile task is queued or running
	panics    atomic.Int64   // tasks that panicked
}

// clientQueue is one client's pending tasks and its DRR deficit.
type clientQueue struct {
	name    string
	weight  int
	deficit int
	tasks   taskQueue
}

// stage is one batch of a submission's tasks, f(0..n-1), sharing the
// submission's scheduling key.
type stage struct {
	f        func(i int)
	wg       sync.WaitGroup
	fail     context.CancelCauseFunc // fails the submission on a panic
	deadline time.Time               // zero = no deadline (after all deadlined work)
	frontEnd bool                    // compile or analysis: runs before solves of its deadline
}

// streamTask is one queued task of a stage.
type streamTask struct {
	st    *stage
	i     int
	order int64 // enqueue order, the FIFO tiebreak
}

// taskQueue is one client's min-heap over streamTask: deadlined tasks before
// deadline-free ones, soonest deadline first; among equal deadlines,
// front-end tasks before solve tasks, then enqueue order.
type taskQueue []streamTask

func (q taskQueue) Len() int { return len(q) }
func (q taskQueue) Less(i, j int) bool {
	a, b := q[i].st, q[j].st
	if a.deadline.IsZero() != b.deadline.IsZero() {
		return !a.deadline.IsZero()
	}
	if !a.deadline.IsZero() && !a.deadline.Equal(b.deadline) {
		return a.deadline.Before(b.deadline)
	}
	if a.frontEnd != b.frontEnd {
		return a.frontEnd
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
	s := &Stream{eng: e, clients: map[string]*clientQueue{}}
	s.qcond = sync.NewCond(&s.mu)
	for w := 0; w < e.workers; w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				s.mu.Lock()
				for s.queued == 0 && !s.stopped {
					s.qcond.Wait()
				}
				if s.queued == 0 { // stopped and drained
					s.mu.Unlock()
					return
				}
				t := s.pop()
				s.mu.Unlock()
				s.active.Add(1)
				s.run(t)
				s.active.Add(-1)
				// Yield before the next pick: the task may have finished a
				// stage, readying its Detect call to queue the next one. With
				// more workers than processors, a worker that went straight
				// on to a long solve would hold that call off for a whole
				// preemption slice, and a light client's module would pay
				// it at every stage.
				runtime.Gosched()
			}
		}()
	}
	return s
}

// pop serves the next task by weighted deficit round-robin: the client at
// the cursor is recharged with its weight when its deficit is spent, and
// yields its heap's first task. A client whose heap empties leaves the ring
// and carries no deficit into its next busy period, so long-run service
// tracks weights over backlogged clients only. Callers hold s.mu and
// s.queued > 0.
func (s *Stream) pop() streamTask {
	if s.cur >= len(s.ring) {
		s.cur = 0
	}
	cq := s.ring[s.cur]
	if cq.deficit == 0 {
		cq.deficit = cq.weight
	}
	t := heap.Pop(&cq.tasks).(streamTask)
	cq.deficit--
	s.queued--
	switch {
	case cq.tasks.Len() == 0:
		s.ring = append(s.ring[:s.cur], s.ring[s.cur+1:]...)
		delete(s.clients, cq.name)
	case cq.deficit == 0:
		s.cur++
	}
	return t
}

// run executes one task. A panic fails the task's submission with an
// in-band internal error; the recover runs before the stage's Done, so the
// waiting Detect call always sees the failure.
func (s *Stream) run(t streamTask) {
	defer t.st.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			t.st.fail(fmt.Errorf("internal error: %v", r))
		}
	}()
	t.st.f(t.i)
}

// StreamStats is a point-in-time snapshot of a stream's scheduler.
type StreamStats struct {
	// Active is how many pool workers are executing a task right now.
	Active int
	// Queued counts stage tasks queued, not yet running; Clients splits it
	// by client name (clients without queued tasks are absent).
	Queued  int
	Clients map[string]int
	// Compiling counts submissions whose compile task is queued or running.
	Compiling int
	// Panics counts tasks that panicked since the stream started.
	Panics int64
}

// Stats reports the scheduler's current load.
func (s *Stream) Stats() StreamStats {
	s.mu.Lock()
	out := StreamStats{Queued: s.queued, Clients: make(map[string]int, len(s.ring))}
	for _, cq := range s.ring {
		out.Clients[cq.name] = cq.tasks.Len()
	}
	s.mu.Unlock()
	out.Active = int(s.active.Load())
	out.Compiling = int(s.compiling.Load())
	out.Panics = s.panics.Load()
	return out
}

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

// Detect runs one submission and blocks until its Result is merged: compile
// (when the submission carries no module), analyse, solve-grid, then the
// same serial merge as Modules, with every task but the merge executed by
// the shared pool so concurrent calls interleave at task granularity. A
// cancelled context short-circuits the remaining tasks (queued ones become
// no-ops, running solves abort at their next poll) and Detect returns the
// context error instead of a Result, so the pool is freed promptly under
// load shedding. A compile error or a panicking task fails the call the same
// way. Detect panics after Close.
func (s *Stream) Detect(sub Submission) (*Result, error) {
	if sub.Start.IsZero() {
		sub.Start = time.Now()
	}
	parent := sub.Ctx
	if parent == nil {
		parent = context.Background()
	}
	if d, ok := parent.Deadline(); ok && sub.Deadline.IsZero() {
		sub.Deadline = d
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("detect: Detect on closed Stream")
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	// ctx ends on the caller's cancellation or on a panicking task, and its
	// cause is what the call returns.
	ctx, fail := context.WithCancelCause(parent)
	defer fail(nil)
	done := ctx.Done()
	failed := func() error {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		return nil
	}
	if err := failed(); err != nil {
		return nil, err
	}
	stageOf := func(frontEnd bool, f func(i int)) *stage {
		return &stage{f: f, fail: fail, deadline: sub.Deadline, frontEnd: frontEnd}
	}

	e := s.eng
	mod := sub.Mod
	if mod == nil {
		var err error
		s.compiling.Add(1)
		s.runStage(sub, 1, stageOf(true, func(int) {
			if !cancelled(done) {
				mod, err = sub.Compile()
			}
		}))
		s.compiling.Add(-1)
		if ferr := failed(); ferr != nil {
			return nil, ferr
		}
		if err != nil {
			return nil, err
		}
	}

	fns := mod.Functions
	infos := make([]*analysis.Info, len(fns))
	fps := make([]constraint.Fingerprint, len(fns))
	var feats []*similarity.Features
	if sub.Explain {
		feats = make([]*similarity.Features, len(fns))
	}
	s.runStage(sub, len(fns), stageOf(true, func(i int) {
		if cancelled(done) {
			return
		}
		infos[i] = analysis.Analyze(fns[i])
		fps[i] = e.fingerprint(infos[i])
		if feats != nil {
			feats[i] = similarity.Extract(infos[i])
		}
	}))
	if err := failed(); err != nil {
		return nil, err
	}

	ros := sub.Roster
	if ros == nil {
		ros = e.roster
	}
	nIdioms := len(ros)
	grid := make([]idiomSolutions, len(fns)*nIdioms)
	s.runStage(sub, len(grid), stageOf(false, func(t int) {
		if cancelled(done) {
			return
		}
		fi, si := t/nIdioms, t%nIdioms
		grid[t] = e.solveResolved(done, ros[si], infos[fi], fps[fi])
	}))
	if err := failed(); err != nil {
		return nil, err
	}

	res := &Result{Mod: mod}
	for i, fn := range fns {
		merge(fn, grid[i*nIdioms:(i+1)*nIdioms], res)
	}
	if sub.Explain {
		res.NearMisses = nearMisses(ros, fns, feats, res)
	}
	res.Elapsed = time.Since(sub.Start)
	return res, nil
}

func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// runStage queues n tasks of st in the submission's client heap and waits
// for all of them. Tasks of concurrent stages (other modules, other
// clients) interleave freely in scheduling order; results must be written
// by index into the submission's grids.
func (s *Stream) runStage(sub Submission, n int, st *stage) {
	if n == 0 {
		return
	}
	weight := sub.Weight
	if weight < 1 {
		weight = 1
	}
	st.wg.Add(n)
	s.mu.Lock()
	cq := s.clients[sub.Client]
	if cq == nil {
		cq = &clientQueue{name: sub.Client}
		s.clients[sub.Client] = cq
		s.ring = append(s.ring, cq)
	}
	cq.weight = weight
	for i := 0; i < n; i++ {
		s.taskOrder++
		heap.Push(&cq.tasks, streamTask{st: st, i: i, order: s.taskOrder})
	}
	s.queued += n
	s.qcond.Broadcast()
	s.mu.Unlock()
	st.wg.Wait()
}

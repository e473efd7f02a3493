package pipeline

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrRateLimited is the base error matched by errors.Is for token-bucket
// rejections. The concrete error is always a *RateLimitedError carrying the
// client and a retry hint.
var ErrRateLimited = errors.New("pipeline: rate limited")

// RateLimitedError reports a submission rejected by a client's token bucket.
// RetryAfter is when the bucket will next hold a full token — the serving
// layer translates it into Retry-After / retry_after_ms.
type RateLimitedError struct {
	Client     string
	RetryAfter time.Duration
}

func (e *RateLimitedError) Error() string {
	return fmt.Sprintf("pipeline: client %q rate limited (retry in %s)", e.Client, e.RetryAfter.Round(time.Millisecond))
}

func (e *RateLimitedError) Unwrap() error { return ErrRateLimited }

// clientState is the per-tenant bookkeeping behind weighted-fair admission:
// one FIFO of jobs awaiting a detect slot, a token bucket, and the gauges
// surfaced in /statsz. The anonymous client (empty name) participates in the
// round-robin like any other tenant but is exempt from per-client caps and
// buckets, so a server without auth behaves exactly like the pre-fairness
// pipeline.
type clientState struct {
	name   string
	weight int

	queue   []*Job  // submitted, awaiting a detect slot
	deficit float64 // deficit round-robin counter

	// Token bucket (lazy refill; no background goroutine). tokens is only
	// meaningful when the pipeline's clientRate is > 0.
	tokens     float64
	lastRefill time.Time

	// Atomic: finish() updates these without holding p.mu.
	inFlight atomic.Int64 // submitted, not yet finished
	served   atomic.Int64 // jobs fully completed (including with job errors)
	shed     atomic.Int64 // rejected at intake, rate limited, or cancelled in queue
}

// clientFor returns the state for a client name, creating and registering it
// in first-seen order on first use. A positive weight updates the stored
// weight (last writer wins — the auth layer sends the keyfile weight on every
// request, so this is idempotent in practice). Callers hold p.mu.
func (p *Pipeline) clientFor(name string, weight int) *clientState {
	cs := p.clients[name]
	if cs == nil {
		cs = &clientState{name: name, weight: 1, lastRefill: time.Now(), tokens: p.clientBurst}
		p.clients[name] = cs
		p.clientOrder = append(p.clientOrder, cs)
	}
	if weight > 0 {
		cs.weight = weight
	}
	return cs
}

// takeToken runs the lazy-refill token bucket for a named client: refill at
// clientRate*weight tokens/sec up to clientBurst, then spend one. On an empty
// bucket it returns false and the wait until a full token exists. Callers
// hold p.mu; the anonymous client never reaches here.
func (cs *clientState) takeToken(rate, burst float64, now time.Time) (ok bool, retryAfter time.Duration) {
	perSec := rate * float64(cs.weight)
	cs.tokens += perSec * now.Sub(cs.lastRefill).Seconds()
	if cs.tokens > burst {
		cs.tokens = burst
	}
	cs.lastRefill = now
	if cs.tokens < 1 {
		wait := time.Duration((1 - cs.tokens) / perSec * float64(time.Second))
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		return false, wait
	}
	cs.tokens--
	return true, 0
}

// drrPick serves one job from the per-client queues, advancing the deficit
// round-robin cursor cur. Each visited client with a backlog is recharged by
// its weight when its deficit runs dry and serves jobs until the deficit is
// spent, so long-run service ratios track weights (2:1 weights → 2:1
// modules) while a client with an empty queue donates its turn instead of
// stalling the ring. Returns nil when every queue is empty. Callers hold
// p.mu.
func drrPick(order []*clientState, cur *int) *Job {
	n := len(order)
	if n == 0 {
		return nil
	}
	if *cur >= n {
		*cur = 0
	}
	// Each client is visited at most once before a serve happens (weight >= 1
	// guarantees the recharge covers one job), so 2n visits always suffice.
	for visits := 0; visits < 2*n; visits++ {
		cs := order[*cur]
		if len(cs.queue) == 0 {
			// An idle client carries no deficit into its next busy period —
			// fairness is over backlogged clients only.
			cs.deficit = 0
			*cur = (*cur + 1) % n
			continue
		}
		if cs.deficit < 1 {
			cs.deficit += float64(cs.weight)
		}
		job := cs.queue[0]
		cs.queue[0] = nil
		cs.queue = cs.queue[1:]
		cs.deficit--
		if cs.deficit < 1 {
			*cur = (*cur + 1) % n
		}
		return job
	}
	return nil
}

// ClientStats is one per-client row in Stats, and on /statsz as is.
type ClientStats struct {
	// Name is the client identity from the auth layer ("" = anonymous tier).
	Name string `json:"name"`
	// Weight is the client's fair-share weight (jobs served per DRR round).
	Weight int `json:"weight"`
	// InFlight is the client's submitted-but-unfinished job count.
	InFlight int64 `json:"in_flight"`
	// ReadyQueue is the client's jobs waiting, uncompiled, for a detect slot.
	ReadyQueue int `json:"ready_queue"`
	// Served counts the client's completed jobs; Shed counts submissions
	// rejected at intake (overload, rate limit) or cancelled while queued.
	Served int64 `json:"served"`
	Shed   int64 `json:"shed"`
}

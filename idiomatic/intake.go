package idiomatic

import (
	"errors"
	"fmt"
	"time"
)

// ErrOverloaded is returned by Submit (and the batch helpers) when the
// service's bounded intake queue is full, or a named client sits at its
// ServiceOptions.ClientQueue bound. A network front door translates it into
// HTTP 429; in-process callers should back off and retry.
var ErrOverloaded = errors.New("idiomatic: overloaded (submit queue full)")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("idiomatic: closed")

// ErrRateLimited is returned by Submit when the requesting client's token
// bucket is empty (see ServiceOptions.ClientRate). The concrete error is
// always a *RateLimitedError carrying the retry hint the HTTP layer turns
// into Retry-After / retry_after_ms.
var ErrRateLimited = errors.New("idiomatic: rate limited")

// RateLimitedError reports a submission rejected by a client's token bucket.
// RetryAfter is when the bucket will next hold a full token.
type RateLimitedError struct {
	Client     string
	RetryAfter time.Duration
}

func (e *RateLimitedError) Error() string {
	return fmt.Sprintf("idiomatic: client %q rate limited (retry in %s)", e.Client, e.RetryAfter.Round(time.Millisecond))
}

func (e *RateLimitedError) Unwrap() error { return ErrRateLimited }

// ClientStatsRow is one per-tenant row in StatsResponse.
type ClientStatsRow struct {
	// Name is the client identity from the auth layer ("" = anonymous tier).
	Name string `json:"name"`
	// Weight is the client's fair-share weight (solver-pool tasks served
	// per round-robin turn while it has work queued).
	Weight int `json:"weight"`
	// InFlight is the client's submitted-but-unfinished request count.
	InFlight int64 `json:"in_flight"`
	// ReadyQueue is the client's stage tasks queued in the solver pool, not
	// yet running.
	ReadyQueue int `json:"ready_queue"`
	// Served counts the client's completed requests (including per-request
	// failures); Shed counts submissions rejected at intake (overload, rate
	// limit).
	Served int64 `json:"served"`
	Shed   int64 `json:"shed"`
}

// clientState is the per-tenant intake bookkeeping: a token bucket and the
// counters surfaced in /statsz. Scheduling between clients is the solver
// pool's (detect.Stream); intake only bounds memory and abuse. The
// anonymous client (empty name) is exempt from per-client caps and buckets,
// so a server without auth behaves exactly like a single-tenant one. All
// fields are guarded by Service.mu.
type clientState struct {
	name   string
	weight int

	// Token bucket (lazy refill; no background goroutine). tokens is only
	// meaningful when the service's clientRate is > 0.
	tokens     float64
	lastRefill time.Time

	inFlight, served, shed int64
}

// admit runs intake for one request of client cl: the global queue bound,
// then, for named clients, the per-client bound and token bucket. On
// success the request counts as in flight until finish.
func (s *Service) admit(cl Client) (*clientState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	cs := s.clientFor(cl.Name, cl.Weight)
	if s.queueLimit > 0 && s.submitted-s.completed >= int64(s.queueLimit) {
		cs.shed++
		return nil, ErrOverloaded
	}
	if cs.name != "" {
		if s.clientQueue > 0 && cs.inFlight >= int64(s.clientQueue) {
			cs.shed++
			return nil, fmt.Errorf("idiomatic: client %q at queue bound %d: %w", cs.name, s.clientQueue, ErrOverloaded)
		}
		if s.clientRate > 0 {
			if ok, retry := cs.takeToken(s.clientRate, s.clientBurst, time.Now()); !ok {
				cs.shed++
				return nil, &RateLimitedError{Client: cs.name, RetryAfter: retry}
			}
		}
	}
	s.submitted++
	cs.inFlight++
	s.inflight.Add(1)
	return cs, nil
}

// finish retires one admitted request.
func (s *Service) finish(cs *clientState) {
	s.mu.Lock()
	s.completed++
	cs.inFlight--
	cs.served++
	s.mu.Unlock()
	s.inflight.Done()
}

// clientFor returns the state for a client name, creating and registering it
// in first-seen order on first use. A positive weight updates the stored
// weight (last writer wins — the auth layer sends the keyfile weight on every
// request, so this is idempotent in practice). Callers hold s.mu.
func (s *Service) clientFor(name string, weight int) *clientState {
	cs := s.clients[name]
	if cs == nil {
		cs = &clientState{name: name, weight: 1, lastRefill: time.Now(), tokens: s.clientBurst}
		s.clients[name] = cs
		s.clientOrder = append(s.clientOrder, cs)
	}
	if weight > 0 {
		cs.weight = weight
	}
	return cs
}

// takeToken runs the lazy-refill token bucket for a named client: refill at
// rate*weight tokens/sec up to burst, then spend one. On an empty bucket it
// returns false and the wait until a full token exists.
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

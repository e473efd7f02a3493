package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/idiomatic"
	"repro/internal/httpapi"
)

// warmRate is warm-serve's arrival rate in requests per second, a tenth of
// the closed-loop capacity of the HTTP path at two connections, so the tail
// shows stalls rather than a growing queue.
const warmRate = 50

// warmSetups is how many times each run sets warm-serve up; the median is
// reported.
const warmSetups = 7

// loadSenders bounds the load generator's sending goroutines and open
// connections.
const loadSenders = 2

// warmSystem is a warmed service behind its HTTP handler.
type warmSystem struct {
	svc *idiomatic.Service
	srv *server
}

func (w *warmSystem) close() {
	w.srv.stop()
	w.svc.Close()
}

// bootWarm builds a service and its listener and warms the memo with one
// in-process suite pass, whose wall time and answers it returns.
func bootWarm(mods []module) (*warmSystem, time.Duration, []idiomatic.MatchResult, error) {
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{})
	if err != nil {
		return nil, 0, nil, err
	}
	srv, err := serve(httpapi.New(svc))
	if err != nil {
		svc.Close()
		return nil, 0, nil, err
	}
	w := &warmSystem{svc: svc, srv: srv}
	t0 := time.Now()
	res, err := svc.MatchBatch(context.Background(), matchRequests(mods, false))
	pass := time.Since(t0)
	if err != nil {
		w.close()
		return nil, 0, nil, err
	}
	return w, pass, res, nil
}

// singleBodies pre-encodes one single-module /v1/match body per module.
func singleBodies(mods []module) [][]byte {
	out := make([][]byte, len(mods))
	for i, r := range matchRequests(mods, false) {
		out[i], _ = json.Marshal(r)
	}
	return out
}

// warmServe: open loop over loopback HTTP with every solve a memo hit.
func warmServe(cfg config, o *outcome) error {
	mods, err := suite()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	bodies := singleBodies(mods)
	cl := newClient(loadSenders, "")
	defer cl.close()

	var sys *warmSystem
	var setups setupTimes
	var passes []float64
	for i := 0; i < warmSetups; i++ {
		if sys != nil {
			sys.close()
		}
		stop := setups.start()
		var pass time.Duration
		var res []idiomatic.MatchResult
		sys, pass, res, err = bootWarm(permuted(mods, rng))
		if err != nil {
			return err
		}
		// One request per module over HTTP opens the connections.
		var answers [][]json.RawMessage
		for _, b := range bodies {
			raw, err := cl.match(sys.srv.url, b, nil)
			if err != nil {
				sys.close()
				return err
			}
			answers = append(answers, raw)
		}
		stop()
		passes = append(passes, pass.Seconds())
		for _, r := range res {
			o.chk.checkLocal(r, false)
		}
		for _, raw := range answers {
			for _, r := range raw {
				o.chk.check(r, false)
			}
		}
	}
	defer sys.close()
	setups.record(o.e2e)
	o.e2e.median("suite_s", "s", passes)

	var smp *sampler
	var mem *phaseMem
	if cfg.trace {
		smp = startSampler(func() []*idiomatic.Service { return []*idiomatic.Service{sys.svc} })
		mem = beginPhase()
	}
	o.info["rate_per_s"] = warmRate
	before := countersOf(sys.svc)
	a, err := openPhase(cfg, o, rng, warmRate, loadSenders, len(mods), func(a arrival) ([]json.RawMessage, error) {
		return cl.match(sys.srv.url, bodies[a.mod], nil)
	}, nil)
	if err != nil {
		return err
	}
	delta := countersOf(sys.svc).sub(before)
	if cfg.trace {
		mem.end(o.layers, len(a.ss))
		smp.finish(o.layers)
		delta.record(o.layers)
	}
	o.selfCheck(delta.misses == 0, "warm-serve missed the memo %d times in its measured phase", delta.misses)
	o.recordCPU(a.cpu, recordOpenLoop(o, a.ss, a.start, false))
	return nil
}

// attempt is the accepted attempt of a measured open loop: its samples,
// when it started and ended, and the process CPU time it took, up to the
// end of its last answer and of the work beside it, checking excluded.
type attempt struct {
	ss         []sample
	start, end time.Time
	cpu        cpuClock
}

// openPhase runs the measured open loop, re-running it (up to maxAttempts)
// when the generator fell behind schedule by more than genLateBound.
// beside, when not nil, runs alongside each attempt until stop is closed and
// is waited for, so a rejected attempt's CPU time and side work are dropped
// with its samples.
func openPhase(cfg config, o *outcome, rng *rand.Rand, rate float64, senders, nmods int, send func(a arrival) ([]json.RawMessage, error), beside func(stop <-chan struct{})) (attempt, error) {
	rejected := 0
	for {
		arr := poissonArrivals(rng, rate, cfg.seconds, nmods)
		stop, done := make(chan struct{}), make(chan struct{})
		cpu0 := cpuTime()
		go func() {
			defer close(done)
			if beside != nil {
				beside(stop)
			}
		}()
		ss, start := openLoop(arr, senders, send)
		close(stop)
		<-done
		a := attempt{ss: ss, start: start, end: time.Now(), cpu: cpuTime().sub(cpu0)}
		late := p99Of(ss, sample.late)
		wait := p99Of(ss, sample.connWait)
		o.info["gen_late_p99_ms"] = ms(late)
		if late <= genLateBound {
			o.info["rejected_runs"] = rejected
			o.layers.set("loadgen.gen_late_p99_ms", "ms", ms(late))
			o.info["conn_wait_p99_ms"] = ms(wait)
			o.layers.set("loadgen.rejected_runs", "count", float64(rejected))
			return a, nil
		}
		rejected++
		if rejected >= maxAttempts {
			return a, fmt.Errorf("load generator fell behind by %v (p99) in %d attempts", late, rejected)
		}
	}
}

// recordOpenLoop checks the answers of an open loop and records its
// end-to-end metrics. Latencies are those of the correct answers; a failed
// request or wrong answer is counted in o.failed, which fails the run.
func recordOpenLoop(o *outcome, ss []sample, start time.Time, pinned bool) (correct int) {
	lats := make([]float64, 0, len(ss))
	var last time.Time
	for _, s := range ss {
		o.attempted++
		switch {
		case s.err != nil:
			o.requestFailed(1, s.err)
			continue
		case len(s.results) != 1:
			o.requestFailed(1, fmt.Errorf("a single-module request got %d results", len(s.results)))
			continue
		case !o.chk.check(s.results[0], pinned):
			o.failed++
			continue
		}
		correct++
		lats = append(lats, ms(s.latency()))
		if s.done.After(last) {
			last = s.done
		}
	}
	if correct > 0 {
		o.e2e.median("p50_ms", "ms", lats)
		o.e2e.percentile("p99_ms", "ms", lats, 0.99)
		o.e2e.set("modules_per_s", "1/s", float64(correct)/last.Sub(start).Seconds())
	}
	return correct
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/idiomatic"
)

// setupProbes is how many fresh processes measure cold-suite's set-up.
const setupProbes = 9

// coldPass is one cold-suite pass: its wall time, each module's latency
// from the start of the pass, its results and its total solver steps.
type coldPass struct {
	begin   time.Time
	wall    time.Duration
	stats   counters
	lat     []time.Duration
	results []idiomatic.MatchResult
	steps   int
}

// runColdPass builds a fresh Service with default options, streams the
// modules through MatchStream and waits for every result. live, when not
// nil, is told which service is serving so the gauge sampler can read it.
func runColdPass(mods []module, o *outcome, live *liveServices) (coldPass, error) {
	var p coldPass
	t0 := time.Now()
	p.begin = t0
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{})
	if err != nil {
		return p, err
	}
	defer svc.Close()
	st := svc.Stats()
	o.selfCheck(st.Memo.Entries == 0 && st.Memo.Hits == 0 && st.Memo.Misses == 0,
		"cold pass started with a non-empty memo: %+v", st.Memo)
	live.set(svc)
	defer live.set(nil)
	ch, err := svc.MatchStream(context.Background(), matchRequests(mods, false))
	if err != nil {
		return p, err
	}
	for r := range ch {
		p.lat = append(p.lat, time.Since(t0))
		p.results = append(p.results, r)
		p.steps += r.SolverSteps
	}
	p.wall = time.Since(t0)
	p.stats = countersOf(svc)
	if len(p.results) != len(mods) {
		return p, fmt.Errorf("pass answered %d of %d modules", len(p.results), len(mods))
	}
	return p, nil
}

// coldSuite: closed loop, one client, in process. Every pass pays the fresh
// backtracking solves of the whole suite.
func coldSuite(cfg config, o *outcome) error {
	mods, err := suite()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	setups, err := probeFirstService(setupProbes)
	if err != nil {
		return err
	}
	setups.record(o.e2e)

	// One unmeasured pass loads the IDL library into this process and grows
	// the heap to its working size, as the probes' set-up did for theirs.
	if _, err := runColdPass(permuted(mods, rng), o, nil); err != nil {
		return err
	}

	var live *liveServices
	var smp *sampler
	var mem *phaseMem
	if cfg.trace {
		live = &liveServices{}
		smp = startSampler(live.get)
		mem = beginPhase()
	}
	var walls, lats, gaps []float64
	var total counters
	var prevEnd time.Time
	var answered []idiomatic.MatchResult
	steps := -1
	cpu0 := cpuTime()
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		p, err := runColdPass(permuted(mods, rng), o, live)
		if err != nil {
			return err
		}
		if !prevEnd.IsZero() {
			gaps = append(gaps, ms(p.begin.Sub(prevEnd)))
		}
		prevEnd = p.begin.Add(p.wall)
		total = total.add(p.stats)
		walls = append(walls, p.wall.Seconds())
		lats = append(lats, durationsMs(p.lat)...)
		o.attempted += len(mods)
		answered = append(answered, p.results...)
		o.selfCheck(steps < 0 || steps == p.steps, "constraint.steps changed between passes: %d then %d", steps, p.steps)
		steps = p.steps
	}
	elapsed := time.Since(start)
	cpu := cpuTime().sub(cpu0)
	if cfg.trace {
		mem.end(o.layers, len(walls)*len(mods))
		smp.finish(o.layers)
		total.record(o.layers)
		// A closed loop has no schedule to fall behind; its generator
		// lateness is the client's own gap between passes.
		o.layers.percentile("loadgen.gen_late_p99_ms", "ms", gaps, 0.99)
		o.layers.set("loadgen.rejected_runs", "count", 0)
	}
	correct := 0
	for _, r := range answered {
		if o.chk.checkLocal(r, false) {
			correct++
		}
	}
	o.e2e.median("suite_s", "s", walls)
	o.e2e.set("modules_per_s", "1/s", float64(correct)/elapsed.Seconds())
	o.recordCPU(cpu, correct)
	o.e2e.median("p50_ms", "ms", lats)
	o.e2e.percentile("p99_ms", "ms", lats, 0.99)
	o.info["rate_per_s"] = "closed loop, one client"
	o.info["passes"] = len(walls)
	o.info["suite_steps"] = steps
	return nil
}

// liveServices tracks the services currently serving, for the sampler.
// A nil *liveServices tracks nothing.
type liveServices struct {
	mu   sync.Mutex
	svcs []*idiomatic.Service
}

func (l *liveServices) set(svc *idiomatic.Service) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.svcs = l.svcs[:0]
	if svc != nil {
		l.svcs = append(l.svcs, svc)
	}
}

func (l *liveServices) get() []*idiomatic.Service {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*idiomatic.Service(nil), l.svcs...)
}

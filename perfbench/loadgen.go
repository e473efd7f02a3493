package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// genLateBound is how far behind schedule the open-loop generator may run
// (p99 of send time minus the time the request was due and a connection was
// free) before a measured phase is rejected and run again: beyond it the
// benchmark process itself, not the system, is what delays requests.
const genLateBound = 25 * time.Millisecond

// maxAttempts bounds how many times a rejected measured phase is re-run.
const maxAttempts = 3

// arrival is one scheduled request: when it is due, relative to the start
// of the phase, and which suite module it carries.
type arrival struct {
	due time.Duration
	mod int
}

// poissonArrivals draws a Poisson arrival process at rate per second over
// the given span, conditioned on its expected count: exactly rate×span
// arrivals, with exponential gaps rescaled to end at the span. Modules come
// in seed-shuffled blocks of every module once, so each run offers the same
// load and the same mix, and the seed changes only their order and timing.
func poissonArrivals(rng *rand.Rand, rate float64, span time.Duration, n int) []arrival {
	count := int(rate * span.Seconds())
	gaps := make([]float64, count+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	out := make([]arrival, count)
	t := 0.0
	var block []int
	for i := range out {
		t += gaps[i]
		if len(block) == 0 {
			block = rng.Perm(n)
		}
		out[i] = arrival{due: time.Duration(t / total * float64(span)), mod: block[0]}
		block = block[1:]
	}
	return out
}

// sample is one sent request: when it was due, when its sender was free to
// send it, when it was sent and answered, and the answer's raw results.
type sample struct {
	mod             int
	due, free, sent time.Time
	done            time.Time
	results         []json.RawMessage
	err             error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// late is how late the generator itself sent the request.
func (s sample) late() time.Duration {
	ready := s.due
	if s.free.After(ready) {
		ready = s.free
	}
	return s.sent.Sub(ready)
}

// connWait is how long the request waited for a free connection after it
// was due; it is part of latency.
func (s sample) connWait() time.Duration {
	if s.free.After(s.due) {
		return s.free.Sub(s.due)
	}
	return 0
}

// openLoop sends the arrivals on schedule from a fixed set of sender
// goroutines, each with its own connection. A sender takes the next arrival
// as soon as it is free and sends it at its due time, or at once if it is
// already late; latency is always measured from the due time, so a stalled
// system is charged for the queue it builds.
func openLoop(arrivals []arrival, senders int, send func(a arrival) ([]json.RawMessage, error)) (ss []sample, start time.Time) {
	out := make([]sample, len(arrivals))
	var next atomic.Int64
	start = time.Now()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				s := sample{mod: a.mod, due: start.Add(a.due), free: time.Now()}
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
				}
				s.sent = time.Now()
				s.results, s.err = send(a)
				s.done = time.Now()
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out, start
}

// p99Of is the p99 of f over the samples.
func p99Of(ss []sample, f func(sample) time.Duration) time.Duration {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(f(s))
	}
	return time.Duration(quantile(xs, 0.99))
}

// client is one load-generating HTTP client with a bounded connection pool.
type client struct {
	hc  *http.Client
	key string
}

func newClient(conns int, key string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, key: key}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends a JSON body and returns the response body of a 200.
func (c *client) post(url string, body []byte, hdr map[string]string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(rb))
	}
	return rb, nil
}

// match posts a /v1/match body and returns its per-module results.
func (c *client) match(base string, body []byte, hdr map[string]string) ([]json.RawMessage, error) {
	rb, err := c.post(base+"/v1/match", body, hdr)
	if err != nil {
		return nil, err
	}
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(rb, &out); err != nil {
		return nil, fmt.Errorf("decoding /v1/match answer: %w", err)
	}
	return out.Results, nil
}

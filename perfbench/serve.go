package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/idiomatic"
)

// server is one loopback HTTP listener the benchmark started.
type server struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// stop shuts the listener down and waits for its serve loop to return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.done
}

// sampler reads Service.Stats at a fixed interval and averages the pipeline
// gauges: compile queue depth, ready queue depth and solver utilisation.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	mu               sync.Mutex
	n                int
	compileQ, readyQ float64
	util             float64
}

// samplerInterval is the gauge sampling period.
const samplerInterval = 2 * time.Millisecond

// startSampler samples the services src returns (those currently serving)
// until stopped. src may return no services between cold passes.
func startSampler(src func() []*idiomatic.Service) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(samplerInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			for _, svc := range src() {
				st := svc.Stats()
				s.mu.Lock()
				s.n++
				s.compileQ += float64(st.CompileQueue)
				s.readyQ += float64(st.ReadyQueue)
				if st.SolveWorkers > 0 {
					s.util += float64(st.SolveActive) / float64(st.SolveWorkers)
				}
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// finish stops sampling and records the gauge means.
func (s *sampler) finish(m *metrics) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	n := float64(s.n)
	if n == 0 {
		n = 1
	}
	m.set("pipeline.compile_queue_mean", "count", s.compileQ/n)
	m.set("pipeline.ready_queue_mean", "count", s.readyQ/n)
	m.set("pipeline.solve_util", "ratio", s.util/n)
}

// setupProbe is the child-process side of cold-suite's set-up measurement:
// the first NewService of a process pays the one-time IDL library compile,
// which only a fresh process can measure again. It prints the wall and CPU
// nanoseconds of that call.
func setupProbe() int {
	w0, c0 := time.Now(), cpuTime()
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{})
	wall, cpu := time.Since(w0), cpuTime().sub(c0).total()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	svc.Close()
	fmt.Println(wall.Nanoseconds(), cpu.Nanoseconds())
	return 0
}

// probeFirstService times the first NewService of n fresh processes.
func probeFirstService(n int) (setupTimes, error) {
	var t setupTimes
	exe, err := os.Executable()
	if err != nil {
		return t, err
	}
	for i := 0; i < n; i++ {
		raw, err := exec.Command(exe, "--setup-probe").Output()
		if err != nil {
			return t, fmt.Errorf("set-up probe: %w", err)
		}
		var wall, cpu int64
		if _, err := fmt.Sscan(string(raw), &wall, &cpu); err != nil {
			return t, fmt.Errorf("set-up probe printed %q", raw)
		}
		t.add(time.Duration(wall), time.Duration(cpu))
	}
	return t, nil
}

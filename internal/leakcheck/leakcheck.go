// Package leakcheck asserts that a test leaves no repo-owned goroutines
// behind. The services under test run real worker pools — the detection
// stream's pool, the service's request goroutines, the HTTP server's
// watchers — and a
// Close/Drain path that forgets one goroutine keeps every subsequent test's
// scheduler noisy and, in production, leaks a pool per reload.
//
// Usage, first line of a test that owns its resources' lifecycle:
//
//	defer leakcheck.Check(t)()
//
// or equivalently leakcheck.Register(t), which uses t.Cleanup. The baseline
// is captured at the call, so goroutines that predate the test (the
// process-wide idiomatic.Default service, other tests' shared fixtures) are
// excluded; only growth attributable to this test is reported. Shutdown is
// asynchronous in places (pool workers observe a closed channel), so the
// check polls briefly before declaring a leak.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// ownedPrefixes identify goroutines this repo spawned: any stack frame in a
// repro package counts. Stdlib-only goroutines (net/http server loops,
// testing timers) are ignored — they belong to their own teardown.
var ownedPrefixes = []string{
	"repro/internal/",
	"repro/idiomatic",
	"repro/cmd/",
}

// snapshot returns the stacks of currently live repo-owned goroutines.
func snapshot() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var owned []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, p := range ownedPrefixes {
			if strings.Contains(g, p) {
				owned = append(owned, g)
				break
			}
		}
	}
	return owned
}

// Check captures the current repo-owned goroutine baseline and returns the
// assertion to defer. The returned func polls until the count falls back to
// the baseline or the grace period expires, then fails the test with the
// leaked stacks.
func Check(t *testing.T) func() {
	t.Helper()
	base := len(snapshot())
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		var extra []string
		for {
			now := snapshot()
			if len(now) <= base {
				return
			}
			if time.Now().After(deadline) {
				extra = now
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leaked %d repo-owned goroutine(s) (baseline %d):", len(extra)-base, base)
		for _, g := range extra {
			t.Logf("goroutine:\n%s", g)
		}
	}
}

// Register is Check wired through t.Cleanup, for tests that prefer not to
// manage the defer themselves.
func Register(t *testing.T) {
	t.Helper()
	t.Cleanup(Check(t))
}

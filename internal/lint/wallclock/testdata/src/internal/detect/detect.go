// Package detect mirrors the real internal/detect package path so the
// analyzer's approved-sites table applies: the measurement functions may
// read the wall clock, everything else may not. It declares every approved
// site except Function, so that entry is reported as stale.
package detect // want `approved wall-clock site Function is not declared in internal/detect`

import "time"

type Engine struct{}

type Stream struct{}

// Module is an approved measurement site (Result.Elapsed timing).
func Module() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// Engine.Modules is approved (batch Elapsed timing).
func (e *Engine) Modules() time.Time {
	return time.Now()
}

// Engine.prescreen is approved (prescreen_ns accounting).
func (e *Engine) prescreen() time.Time {
	return time.Now()
}

// Engine.solveResolved is approved (solve-cost measurement).
func (e *Engine) solveResolved() time.Duration {
	return time.Since(time.Now())
}

// Stream.Detect is approved (per-module start stamp and Elapsed).
func (s *Stream) Detect() time.Time {
	return time.Now()
}

// Engine.merge is NOT on the approved list: merge paths must stay
// wall-clock free.
func (e *Engine) merge() time.Time {
	return time.Now() // want `wall-clock read time.Now in Engine.merge`
}

// Stream.drain is NOT approved either.
func (s *Stream) drain(start time.Time) time.Duration {
	return time.Since(start) // want `wall-clock read time.Since in Stream.drain`
}

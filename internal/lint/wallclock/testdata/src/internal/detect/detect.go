// Package detect mirrors the real internal/detect package path so the
// analyzer's approved-sites table applies: the measurement functions may
// read the wall clock, everything else may not. It declares every approved
// site except Stream.Detect, so that entry is reported as stale.
package detect // want `approved wall-clock site Stream.Detect is not declared in internal/detect`

import "time"

type Engine struct{}

type Stream struct{}

// Module is NOT approved: only the engine's batch and the stream's Detect
// call measure a module.
func Module() time.Duration {
	start := time.Now()      // want `wall-clock read time.Now in Module`
	return time.Since(start) // want `wall-clock read time.Since in Module`
}

// Engine.Modules is approved (batch Elapsed timing).
func (e *Engine) Modules() time.Time {
	return time.Now()
}

// Engine.merge is NOT on the approved list: merge paths must stay
// wall-clock free.
func (e *Engine) merge() time.Time {
	return time.Now() // want `wall-clock read time.Now in Engine.merge`
}

// Engine.solveResolved is NOT approved: a solve is measured by its steps,
// never by the wall clock.
func (e *Engine) solveResolved() time.Duration {
	return time.Since(time.Now()) // want `wall-clock read time.Since in Engine.solveResolved` `wall-clock read time.Now in Engine.solveResolved`
}

// Stream.drain is NOT approved either.
func (s *Stream) drain(start time.Time) time.Duration {
	return time.Since(start) // want `wall-clock read time.Since in Stream.drain`
}

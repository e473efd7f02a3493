package cancelpoll_test

import (
	"testing"

	"repro/internal/lint/cancelpoll"
	"repro/internal/lint/linttest"
)

func TestCancelPoll(t *testing.T) {
	linttest.Run(t, cancelpoll.Analyzer, "a")
}

// TestCancelPollSlotSolver runs the analyzer over the slot-form solver's
// loop shapes: integer variable indices and arena-backed candidate sets.
func TestCancelPollSlotSolver(t *testing.T) {
	linttest.Run(t, cancelpoll.Analyzer, "slots")
}

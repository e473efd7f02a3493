// Package slots seeds the cancelpoll analyzer with the slot-form solver's
// loop shapes: variables are dense indices, the assignment is a slice, and
// candidate sets come from a per-solver arena. The analyzer must still find
// the candidate loops by their callee names.
package slots

type val int

type solver struct {
	Cancel    chan struct{}
	cancelled bool
	vars      []int
	assign    []val
	arena     []val
}

func (s *solver) candidateList(k int) []val { return s.arena }
func (s *solver) tryCandidate(k int, c val) { s.assign[s.vars[k]] = c }

// stepBad enumerates variable k's candidates and truncates the arena, but
// never reacts to a cancellation observed deeper in the recursion.
func (s *solver) stepBad(k int) {
	mark := len(s.arena)
	for _, c := range s.candidateList(k) { // want "never checks cancellation"
		s.tryCandidate(k, c)
	}
	s.arena = s.arena[:mark]
}

// stepGood breaks out once the flag is set, then truncates.
func (s *solver) stepGood(k int) {
	mark := len(s.arena)
	for _, c := range s.candidateList(k) {
		s.tryCandidate(k, c)
		if s.cancelled {
			break
		}
	}
	s.arena = s.arena[:mark]
}

// arenaBad walks a candidate set held in a slice of the arena by index.
func (s *solver) arenaBad(k int) {
	set := s.arena[:len(s.arena):len(s.arena)]
	for i := range set { // want "never checks cancellation"
		s.tryCandidate(k, set[i])
	}
}

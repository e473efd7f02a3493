// Package a seeds the cancelpoll analyzer with candidate-loop shapes: the
// flagged functions reproduce the two historical bugs (a check-free loop over
// a candidate slice, and the unwind loop PR 10 fixed), the clean ones are the
// accepted disciplines.
package a

type val int

type solver struct {
	Cancel    chan struct{}
	cancelled bool
}

func (s *solver) candidateList(v string) []val        { return nil }
func (s *solver) candidates(v string) ([]val, bool)   { return nil, false }
func (s *solver) tryCandidate(k int, v string, c val) {}
func (s *solver) pollCancel() bool                    { return s.cancelled }

// stepBad is the unwind bug: enumerates candidates and never reacts to a
// cancellation observed deeper in the recursion.
func (s *solver) stepBad(k int, v string) {
	for _, c := range s.candidateList(v) { // want "never checks cancellation"
		s.tryCandidate(k, v, c)
	}
}

// stepGood observes the cancelled flag once per candidate.
func (s *solver) stepGood(k int, v string) {
	for _, c := range s.candidateList(v) {
		s.tryCandidate(k, v, c)
		if s.cancelled {
			return
		}
	}
}

// chunkBad loops over a candidate slice with no per-candidate check: once
// cancellation is observed it keeps enumerating.
func (s *solver) chunkBad(cands []val) {
	for _, c := range cands { // want "never checks cancellation"
		s.tryCandidate(0, "v", c)
	}
}

// chunkGood checks the flag and polls the channel without blocking before
// every candidate.
func (s *solver) chunkGood(cands []val) {
	for _, c := range cands {
		if s.cancelled {
			return
		}
		if s.Cancel != nil {
			select {
			case <-s.Cancel:
				s.cancelled = true
				return
			default:
			}
		}
		s.tryCandidate(0, "v", c)
	}
}

// chunkHelper polls through a named helper; any callee mentioning cancel
// counts as a check.
func (s *solver) chunkHelper(cands []val) {
	for _, c := range cands {
		if s.pollCancel() {
			return
		}
		s.tryCandidate(0, "v", c)
	}
}

// indexLoop drives tryCandidate from a plain for loop; same rules apply.
func (s *solver) indexLoop(cands []val) {
	for i := 0; i < len(cands); i++ { // want "never checks cancellation"
		s.tryCandidate(0, "v", cands[i])
	}
}

// closureCredit must not leak: a cancel check inside a nested function
// literal does not run per iteration of the outer loop.
func (s *solver) closureCredit(cands []val) {
	for _, c := range cands { // want "never checks cancellation"
		f := func() bool { return s.cancelled }
		_ = f
		s.tryCandidate(0, "v", c)
	}
}

// otherLoop iterates something that is not a candidate enumeration; the
// analyzer must leave it alone.
func (s *solver) otherLoop(steps []int) int {
	total := 0
	for _, st := range steps {
		total += st
	}
	return total
}

// suppressed documents a loop that is provably bounded.
func (s *solver) suppressed(cands []val) {
	for _, c := range cands[:1] { //lint:allow cancelpoll single candidate, bounded by construction
		s.tryCandidate(0, "v", c)
	}
}

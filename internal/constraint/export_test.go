package constraint

import "repro/internal/analysis"

// EncodePayloadForTest encodes one solve outcome as its spill payload.
func EncodePayloadForTest(sols []Solution, steps int, info *analysis.Info) ([]byte, bool) {
	return encodePayload(sols, steps, info)
}

// ReencodePayloadForTest decodes a spill payload onto info and encodes the
// result again; ok is false when the decoder rejects the payload.
func ReencodePayloadForTest(payload []byte, info *analysis.Info) ([]byte, bool) {
	sols, steps, ok := decodePayload(payload, info)
	if !ok {
		return nil, false
	}
	return encodePayload(sols, steps, info)
}

// GreedyOrdersForTest returns the greedy solving order of a problem compiled
// with OrderAppearance, and the order the reference loop gives.
func GreedyOrdersForTest(p *Problem) (got, want []string) {
	return orderVariables(p.Root, p.Vars, OrderGreedy), referenceGreedyOrder(p.Root, p.Vars)
}

// referenceGreedyOrder is the greedy ordering as first written: every pick
// scores every atom for every unchosen variable. The indexed orderVariables
// must reproduce it exactly, ties included, since the order sets the
// solver's steps.
func referenceGreedyOrder(root Node, appearance []string) []string {
	atoms := gatherAtoms(root)
	chosen := map[string]bool{}
	var out []string
	pos := map[string]int{}
	for i, v := range appearance {
		pos[v] = i
	}
	for len(out) < len(appearance) {
		best := ""
		bestScore := -1
		for _, v := range appearance {
			if chosen[v] {
				continue
			}
			score := 0
			for _, at := range atoms {
				s := generatorScore(at, v, chosen)
				if s > score {
					score = s
				}
			}
			if score > bestScore || score == bestScore && best != "" && pos[v] < pos[best] {
				bestScore = score
				best = v
			}
		}
		chosen[best] = true
		out = append(out, best)
	}
	return out
}

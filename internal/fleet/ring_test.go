package fleet

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// ringWalkFailover is the failover order derived per request by walking the
// ring, kept as the reference for the table New builds: look up the owner's
// first ring point, collect each distinct replica met walking on from it,
// then put the owner first.
func ringWalkFailover(f *Front, owner int) []int {
	first := 0
	for i, n := range f.ring {
		if n.idx == owner {
			first = i
			break
		}
	}
	key := f.ring[first].hash
	start := sort.Search(len(f.ring), func(i int) bool { return f.ring[i].hash >= key })
	var cands []int
	seen := make([]bool, len(f.replicas))
	for i := 0; i < len(f.ring) && len(cands) < len(f.replicas); i++ {
		idx := f.ring[(start+i)%len(f.ring)].idx
		if !seen[idx] {
			seen[idx] = true
			cands = append(cands, idx)
		}
	}
	out := []int{owner}
	for _, idx := range cands {
		if idx != owner {
			out = append(out, idx)
		}
	}
	return out
}

// TestFailoverOrderMatchesRing pins the failover table New computes once to
// the per-request ring walk it replaced, for fleets of one to five replicas.
func TestFailoverOrderMatchesRing(t *testing.T) {
	for n := 1; n <= 5; n++ {
		var urls []string
		for i := range n {
			urls = append(urls, fmt.Sprintf("http://replica-%d:%d", i, 8181+i))
		}
		f, err := New(Options{Replicas: urls})
		if err != nil {
			t.Fatal(err)
		}
		for owner := range f.replicas {
			got, want := f.failover[owner], ringWalkFailover(f, owner)
			if !slices.Equal(got, want) {
				t.Errorf("%d replicas, owner %d: failover %v; the ring walk gives %v", n, owner, got, want)
			}
			if len(got) != n {
				t.Errorf("%d replicas, owner %d: failover %v does not name every replica once", n, owner, got)
			}
		}
		f.Close()
	}
}

package detect

import (
	"container/heap"
	"testing"
	"time"
)

// TestTaskQueueOrder pins the four scheduling keys of one client's task
// heap, in precedence order: deadlined tasks before deadline-free ones,
// earlier deadline first, front end (compile, analysis) before solve, then
// FIFO. Tasks are pushed in an order that every key has to correct.
func TestTaskQueueOrder(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	soon, late := base.Add(time.Second), base.Add(time.Minute)
	tasks := []struct {
		name     string
		deadline time.Time
		analysis bool
	}{
		{"free-solve-1", time.Time{}, false},
		{"free-analysis-1", time.Time{}, true},
		{"late-solve-1", late, false},
		{"free-solve-2", time.Time{}, false},
		{"late-analysis", late, true},
		{"soon-solve-1", soon, false},
		{"free-analysis-2", time.Time{}, true},
		{"soon-solve-2", soon, false},
		{"soon-analysis", soon, true},
		{"late-solve-2", late, false},
	}
	want := []string{
		// Deadlined before deadline-free; earlier deadline first.
		"soon-analysis", "soon-solve-1", "soon-solve-2",
		"late-analysis", "late-solve-1", "late-solve-2",
		// Among deadline-free tasks: front end before solve, then FIFO.
		"free-analysis-1", "free-analysis-2", "free-solve-1", "free-solve-2",
	}

	var q taskQueue
	names := map[int64]string{}
	for i, tk := range tasks {
		order := int64(i + 1)
		names[order] = tk.name
		heap.Push(&q, streamTask{st: &stage{deadline: tk.deadline, frontEnd: tk.analysis}, order: order})
	}
	var got []string
	for q.Len() > 0 {
		got = append(got, names[heap.Pop(&q).(streamTask).order])
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d tasks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v\nwant        %v", got, want)
		}
	}
}

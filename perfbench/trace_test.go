package main

import (
	"testing"
	"time"
)

// fakeClock returns the tracer a clock the test advances by hand.
func fakeClock(t *tracer) *time.Duration {
	var now time.Duration
	t.now = func() time.Duration { return now }
	return &now
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	tr := &tracer{}
	now := fakeClock(tr)
	ms := time.Millisecond

	// A root opened on the tracer with two goroutine logs under it whose
	// outermost spans overlap, as parallel replicas do.
	*now = 0
	root := tr.begin("run", 0, -1)
	a, b := tr.log(1, root), tr.log(2, root)
	*now = 10 * ms
	a.begin("replica") // 10..30
	*now = 12 * ms
	a.begin("step") // 12..20, with a callback 14..15
	*now = 14 * ms
	a.begin("callback")
	*now = 15 * ms
	a.end()
	*now = 20 * ms
	a.end()
	*now = 20 * ms
	b.begin("replica") // 20..50, overlapping a's
	*now = 30 * ms
	a.end()
	*now = 50 * ms
	b.end()
	*now = 100 * ms
	tr.end(root)
	a.close()
	b.close()

	want := map[string]struct{ total, self time.Duration }{
		"run":      {100 * ms, 60 * ms}, // children cover 10..50 once, not 20+30
		"replica":  {50 * ms, 42 * ms},  // a: 20 − 8 in step; b: 30
		"step":     {8 * ms, 7 * ms},
		"callback": {1 * ms, 1 * ms},
	}
	for name, w := range want {
		st := tr.stats(name)
		if st.total != w.total || st.self != w.self {
			t.Errorf("%s: total %v self %v, want %v and %v", name, st.total, st.self, w.total, w.self)
		}
	}
	for i, s := range tr.spans {
		if s.Name == "callback" && tr.spans[s.Parent].Name != "step" {
			t.Errorf("span %d: callback's parent is %q", i, tr.spans[s.Parent].Name)
		}
		if s.Name == "replica" && s.Parent != root {
			t.Errorf("span %d: replica's parent is %d, want the root %d", i, s.Parent, root)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	l := tr.log(1, tr.begin("x", 0, -1))
	l.begin("y")
	l.end()
	l.close()
	if st := tr.stats("y"); len(st.durs) != 0 {
		t.Errorf("nil tracer recorded %d spans", len(st.durs))
	}
}

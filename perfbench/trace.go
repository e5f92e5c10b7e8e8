package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced run records spans around the benchmark's own calls into
// each layer's public functions; nothing inside the program is
// instrumented. Spans are kept in memory and written out at exit.

// Span is one recorded interval at a layer boundary.
type Span struct {
	Name   string
	ID     int64 // the replica or request the span belongs to
	Parent int   // index of the enclosing span, -1 for a root
	Start  time.Duration
	End    time.Duration
	// Self is End−Start minus the part of that interval the span's
	// children cover; finish sets it.
	Self time.Duration
}

// tracer holds every span of a run. Coarse spans that other goroutines
// hang children under are opened on the tracer itself; fine-grained
// spans go to a goroutine-local spanLog and are merged when it closes.
// A nil tracer and a nil spanLog record nothing.
type tracer struct {
	now      func() time.Duration
	mu       sync.Mutex
	spans    []Span
	finished int // spans whose self time finish has computed
}

func newTracer() *tracer {
	epoch := time.Now()
	return &tracer{now: func() time.Duration { return time.Since(epoch) }}
}

// begin opens a span directly on the tracer and returns its index,
// which children in any goroutine may name as their parent.
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Start: start})
	return len(t.spans) - 1
}

// end closes a span opened with begin.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// spanLog records the spans of one goroutine without locking. Open
// spans form a stack: a new span's parent is the innermost open one, or
// the log's parent for an outermost span.
type spanLog struct {
	t      *tracer
	id     int64
	parent int
	spans  []Span
	open   []int
}

// log starts a goroutine-local log whose spans carry id and whose
// outermost spans hang under parent (an index from begin, or -1).
func (t *tracer) log(id int64, parent int) *spanLog {
	if t == nil {
		return nil
	}
	return &spanLog{t: t, id: id, parent: parent}
}

func (l *spanLog) begin(name string) {
	if l == nil {
		return
	}
	p := -1
	if k := len(l.open); k > 0 {
		p = l.open[k-1]
	}
	l.open = append(l.open, len(l.spans))
	l.spans = append(l.spans, Span{Name: name, ID: l.id, Parent: p, Start: l.t.now()})
}

func (l *spanLog) end() {
	if l == nil {
		return
	}
	k := len(l.open) - 1
	l.spans[l.open[k]].End = l.t.now()
	l.open = l.open[:k]
}

// close merges the log into its tracer. Every span must be ended.
func (l *spanLog) close() {
	if l == nil {
		return
	}
	if len(l.open) != 0 {
		panic("perfbench: span log closed with open spans")
	}
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	base := len(l.t.spans)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			s.Parent += base
		} else {
			s.Parent = l.parent
		}
		l.t.spans = append(l.t.spans, s)
	}
}

// finish computes every span's self time: its duration minus the
// union of its children's intervals, so children running in parallel
// are not subtracted twice.
func (t *tracer) finish() {
	if t.finished == len(t.spans) {
		return
	}
	t.finished = len(t.spans)
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(t.spans, children[i], s.Start, s.End)
	}
}

// covered returns the length of the union of the spans' intervals,
// clipped to [lo, hi].
func covered(spans []Span, idx []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanStats aggregates the finished spans of one name.
type spanStats struct {
	total time.Duration
	self  time.Duration
	durs  []time.Duration
}

func (t *tracer) stats(name string) spanStats {
	var st spanStats
	if t == nil {
		return st
	}
	t.finish()
	for _, s := range t.spans {
		if s.Name == name {
			st.total += s.End - s.Start
			st.self += s.Self
			st.durs = append(st.durs, s.End-s.Start)
		}
	}
	return st
}

// write stores the spans as CSV: name, id, parent, start, end and self
// time in nanoseconds since the tracer started.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,start_ns,end_ns,self_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.Name, s.ID, s.Parent, s.Start, s.End, s.Self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"testing"
	"time"
)

// A request that stalls its connection makes the requests due behind it
// late; their latency is counted from when they were due, so the stall
// shows in both the latency and the generator's lateness.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const (
		n     = 200
		rate  = 1000.0 // one request per millisecond
		stall = 50 * time.Millisecond
		at    = 20
	)
	late, lat := openLoop(n, rate, 1, func(i int) {
		if i == at {
			time.Sleep(stall)
		}
	})
	if lat[at] < stall {
		t.Errorf("stalled request's latency %v < stall %v", lat[at], stall)
	}
	// Request at+1 was due 1 ms after the stalled one and could only be
	// sent when the connection freed up.
	if late[at+1] < stall-2*time.Millisecond || lat[at+1] < late[at+1] {
		t.Errorf("request behind the stall: late %v, latency %v; want both ≥ %v", late[at+1], lat[at+1], stall-2*time.Millisecond)
	}
	ld := durDist(late, time.Millisecond)
	if p := ld.pct(99); p < 25 {
		t.Errorf("p99 lateness %.1f ms hides a %v stall", p, stall)
	}
	// Requests before the stall were sent on time; the median request
	// is not affected.
	if late[at-1] > stall/2 {
		t.Errorf("request before the stall was %v late", late[at-1])
	}
}

func TestClosedLoopRunsEachJobOnce(t *testing.T) {
	seen := make([]int, 100)
	ch := make(chan int, 100)
	closedLoop(10, 100, 3, func(i int) { ch <- i })
	close(ch)
	for i := range ch {
		seen[i]++
	}
	for i, c := range seen {
		want := 1
		if i < 10 {
			want = 0
		}
		if c != want {
			t.Errorf("job %d ran %d times, want %d", i, c, want)
		}
	}
}

func TestPlanJobsRepeatsFinishedColdJobs(t *testing.T) {
	plan := planJobs(7, 4000)
	seeds := map[uint64]int{}
	repeats := 0
	for i, j := range plan {
		if j.twin < 0 {
			if prev, dup := seeds[j.seed]; dup {
				t.Fatalf("cold jobs %d and %d share seed %d", prev, i, j.seed)
			}
			seeds[j.seed] = i
			continue
		}
		repeats++
		if plan[j.twin].twin >= 0 || plan[j.twin].seed != j.seed || i-j.twin < daemonTwinLag {
			t.Errorf("job %d repeats job %d badly: %+v of %+v", i, j.twin, j, plan[j.twin])
		}
	}
	if want := (4000 - daemonTwinLag) / daemonHitEvery; repeats != want {
		t.Errorf("%d repeats, want %d", repeats, want)
	}
	again := planJobs(7, 4000)
	for i := range plan {
		if plan[i] != again[i] {
			t.Fatalf("plan differs at job %d for the same seed", i)
		}
	}
}

package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

// A stalled system must be charged for every request that was due while it
// stalled. The system here serves one request at a time (one sender) and
// freezes for 60 ms on request 20; requests are due every millisecond.
func TestOpenLoopCountsCoordinatedOmission(t *testing.T) {
	const n, stalledAt, stall = 200, 20, 60 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	sendTimes := make([]time.Duration, n) // how long the handler itself took
	res := openLoop(due, 1, func(i int) bool {
		t0 := time.Now()
		if i == stalledAt {
			time.Sleep(stall)
		}
		sendTimes[i] = time.Since(t0)
		return i != n-1 // the last request "fails"
	})

	slowFromDue, slowFromSend := 0, 0
	for i := 0; i < n-1; i++ {
		if res.latency[i] >= 0.010 {
			slowFromDue++
		}
		if sendTimes[i] >= 10*time.Millisecond {
			slowFromSend++
		}
	}
	// Timed from the actual send — the coordinated-omission mistake — only
	// the stalled request looks slow.
	if slowFromSend != 1 {
		t.Fatalf("%d handler calls took 10 ms or more, want exactly the stalled one", slowFromSend)
	}
	// Timed from the schedule, the ~50 requests due during the stall (minus
	// the 10 ms threshold) are slow too.
	if slowFromDue < 40 {
		t.Errorf("%d requests were 10 ms or more late from their due time, want at least 40: "+
			"the stall must be charged to the requests queued behind it", slowFromDue)
	}
	if res.latency[stalledAt] < stall.Seconds() {
		t.Errorf("stalled request latency %v, want at least %v", res.latency[stalledAt], stall)
	}
	if !math.IsNaN(res.latency[n-1]) {
		t.Errorf("failed request has latency %v, want NaN", res.latency[n-1])
	}
	// The schedule itself never waited for the stalled sender.
	if late := percentile(sortedCopy(res.late), 99); late > 0.010 {
		t.Errorf("generator ran %v s late at p99; the schedule must not block on senders", late)
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, d = 1000, 4 * time.Second
	a, b := poissonSchedule(7, rate, d), poissonSchedule(7, rate, d)
	if len(a) != len(b) {
		t.Fatal("the same seed must give the same schedule")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed must give the same schedule")
		}
	}
	if c := poissonSchedule(8, rate, d); len(c) == len(a) && c[0] == a[0] && c[1] == a[1] {
		t.Error("another seed gave the same schedule")
	}
	if len(a) != 4000 {
		t.Errorf("%d arrivals in %v at %d/s, want exactly 4000 whatever the seed", len(a), d, rate)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= d {
		t.Error("schedule must ascend and end before d")
	}
}

package main

import (
	"sync"
	"testing"
	"time"
)

// TestOpenLoopDueTimes checks the open loop's accounting: request k is due
// at start + k/rate, a stall on the generator does not delay the schedule
// (later requests keep their due times and are charged the wait), and the
// generator's lateness is reported per request.
func TestOpenLoopDueTimes(t *testing.T) {
	const rate = 1000 // one request per millisecond
	const stallAt, stall = 10, 8 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(40 * time.Millisecond)

	var mu sync.Mutex
	dues := map[int]time.Time{}
	sent := map[int]time.Time{}
	late := openLoop(start, end, arrivals{
		rate: rate,
		prepare: func(k int) (any, bool) {
			if k == stallAt {
				time.Sleep(stall)
			}
			return k * 2, true
		},
		issue: func(k int, due time.Time, v any) {
			if v.(int) != k*2 {
				t.Errorf("request %d got prepared value %v", k, v)
			}
			mu.Lock()
			dues[k], sent[k] = due, time.Now()
			mu.Unlock()
		},
	})
	if len(dues) != 40 || len(late) != 40 {
		t.Fatalf("issued %d requests with %d lateness samples, want 40 each", len(dues), len(late))
	}
	for k, due := range dues {
		if want := start.Add(time.Duration(k) * time.Millisecond); !due.Equal(want) {
			t.Errorf("request %d due at +%v, want +%v", k, due.Sub(start), want.Sub(start))
		}
		if sent[k].Before(due) {
			t.Errorf("request %d sent %v before it was due", k, due.Sub(sent[k]))
		}
	}
	for k, l := range late {
		if l < 0 {
			t.Errorf("request %d has negative lateness %v", k, l)
		}
	}
	if late[stallAt] < stall {
		t.Errorf("the stalled request's lateness is %v, want at least %v", late[stallAt], stall)
	}
	// The request due just after the stall is dispatched at once, still
	// late: the schedule does not shift to absorb the stall.
	if late[stallAt+1] < stall-2*time.Millisecond {
		t.Errorf("request after the stall is %v late, want about %v", late[stallAt+1], stall-time.Millisecond)
	}
}

func TestOpenLoopMergesStreamsAndStops(t *testing.T) {
	start := time.Now()
	var mu sync.Mutex
	counts := map[string]int{}
	count := func(name string) func(int, time.Time, any) {
		return func(int, time.Time, any) {
			mu.Lock()
			counts[name]++
			mu.Unlock()
		}
	}
	late := openLoop(start, start.Add(30*time.Millisecond),
		arrivals{rate: 1000, issue: count("fast")},
		arrivals{rate: 100, issue: count("slow")},
		// A stream whose source runs dry after three requests.
		arrivals{rate: 1000, prepare: func(k int) (any, bool) { return nil, k < 3 }, issue: count("dry")},
	)
	if counts["fast"] != 30 || counts["slow"] != 3 || counts["dry"] != 3 {
		t.Errorf("issued %v, want fast 30, slow 3, dry 3", counts)
	}
	if len(late) != 36 {
		t.Errorf("%d lateness samples, want 36", len(late))
	}
}

func TestClosedLoopStampsCompletions(t *testing.T) {
	start := time.Now()
	calls := closedLoop(start, start.Add(20*time.Millisecond), 2, func(int) { time.Sleep(2 * time.Millisecond) })
	if len(calls) < 10 {
		t.Fatalf("%d calls in 20 ms from 2 callers sleeping 2 ms, want at least 10", len(calls))
	}
	for _, c := range calls {
		if c.lat < 2*time.Millisecond || c.at < c.lat {
			t.Errorf("call stamped at +%v took %v", c.at, c.lat)
		}
	}
}

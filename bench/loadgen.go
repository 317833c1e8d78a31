package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tally counts a phase's operations. An operation that returned an error is
// failed; one that returned a wrong answer is wrong. Both count against
// error_rate.
type tally struct {
	attempted, failed, wrong atomic.Int64
	firstErr                 atomic.Value // error text of the first failure
}

// record counts one operation.
func (t *tally) record(err error, wrong bool) {
	t.attempted.Add(1)
	switch {
	case err != nil:
		if t.failed.Add(1) == 1 {
			t.firstErr.Store(err.Error())
		}
	case wrong:
		t.wrong.Add(1)
	}
}

// bad is the number of operations that failed or answered wrongly.
func (t *tally) bad() int64 { return t.failed.Load() + t.wrong.Load() }

// arrivals is one open-loop request stream: request k is due at
// start + k/rate seconds.
type arrivals struct {
	rate float64
	// prepare, when set, runs on the generator goroutine before request k is
	// dispatched and returns the value handed to issue; it may block (the
	// ingest workload takes the next stream chunk here). Returning false ends
	// the stream.
	prepare func(k int) (any, bool)
	// issue sends request k in its own goroutine; due is the time it was
	// scheduled for, from which its latency is measured.
	issue func(k int, due time.Time, v any)
}

func (a arrivals) due(start time.Time, k int) time.Time {
	return start.Add(time.Duration(float64(k) / a.rate * float64(time.Second)))
}

// openLoop dispatches every stream's requests from one generator goroutine
// (the caller's) on a fixed schedule in [start, end), each request in its own
// goroutine, so a stalled system keeps receiving load at the offered rate. It
// returns how late the generator dispatched each request and returns only
// after every issued request has finished.
func openLoop(start, end time.Time, streams ...arrivals) (lateness []time.Duration) {
	var wg sync.WaitGroup
	next := make([]int, len(streams))
	done := make([]bool, len(streams))
	for {
		pick := -1
		var due time.Time
		for s, a := range streams {
			if done[s] {
				continue
			}
			d := a.due(start, next[s])
			if !d.Before(end) {
				done[s] = true
				continue
			}
			if pick < 0 || d.Before(due) {
				pick, due = s, d
			}
		}
		if pick < 0 {
			break
		}
		sleepUntil(due)
		a, k := streams[pick], next[pick]
		next[pick]++
		var v any
		if a.prepare != nil {
			var ok bool
			if v, ok = a.prepare(k); !ok {
				done[pick] = true
				continue
			}
		}
		lateness = append(lateness, time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.issue(k, due, v)
		}()
	}
	wg.Wait()
	return lateness
}

// sleepUntil blocks until t with a direct nanosleep: the runtime's timers
// wake sub-millisecond sleeps up to a millisecond late, which at these
// request intervals would be charged to every request as latency.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
		// Interrupted by a signal: sleep the rest.
	}
}

// closedLoop runs callers that each send their next request only after the
// previous one returned, from start until end. It returns every call's
// latency, stamped with when it returned.
func closedLoop(start, end time.Time, callers int, op func(caller int)) []stamped {
	lat := make([][]stamped, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				t := time.Now()
				op(c)
				now := time.Now()
				lat[c] = append(lat[c], stamped{at: now.Sub(start), lat: now.Sub(t)})
			}
		}()
	}
	wg.Wait()
	var all []stamped
	for _, l := range lat {
		all = append(all, l...)
	}
	return all
}

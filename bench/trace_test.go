package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 60, End: 70},
		{ID: 4, Parent: 0, Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 2, Start: 25, End: 45},  // a grandchild leaves span 0 alone
		{ID: 6, Parent: -1, Start: 200, End: 210},
	}
	want := []int64{100 - 40 - 10 - 10, 20, 30 - 20, 10, 30, 20, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got[i], want[i])
		}
	}
}

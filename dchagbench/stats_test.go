package main

import (
	"testing"
	"time"
)

func TestCovered(t *testing.T) {
	win := interval{10, 100}
	cases := []struct {
		spans []interval
		want  time.Duration
	}{
		{nil, 0},
		{[]interval{{20, 30}}, 10},
		{[]interval{{20, 30}, {25, 40}}, 20},    // overlapping
		{[]interval{{20, 60}, {30, 40}}, 40},    // nested
		{[]interval{{0, 15}, {95, 200}}, 10},    // clipped at both edges
		{[]interval{{20, 30}, {50, 60}}, 20},    // disjoint
		{[]interval{{200, 300}, {-50, -10}}, 0}, // outside
	}
	for _, c := range cases {
		if got := covered(win, c.spans); got != c.want {
			t.Errorf("covered(%v) = %v, want %v", c.spans, got, c.want)
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	if got := trimmedMean([]float64{100, 1, 2, 3, -50}); got != 2 {
		t.Errorf("trimmedMean = %v, want 2", got)
	}
	if got := trimmedMean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("trimmedMean of three = %v, want their mean 3", got)
	}
}

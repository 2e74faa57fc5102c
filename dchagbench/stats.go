package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/serve"
)

// sorted returns an ascending copy of xs, the form serve.Quantile takes.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return serve.Quantile(sorted(xs), 0.5) }

func p90(xs []float64) float64 { return serve.Quantile(sorted(xs), 0.9) }

// trimmedMean averages xs without its lowest and highest value when it
// has at least four.
func trimmedMean(xs []float64) float64 {
	if len(xs) < 4 {
		return mean(xs)
	}
	return mean(sorted(xs)[1 : len(xs)-1])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// liveHeap reads the memory counters after two forced collections: the
// second empties the sync.Pool victim caches the first one filled, so
// HeapAlloc counts only live data.
func liveHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// interval is a half-open time range [lo, hi) on one clock.
type interval struct{ lo, hi time.Duration }

// covered returns how much of win the union of spans covers. Spans may
// overlap and nest; only their parts inside win count.
func covered(win interval, spans []interval) time.Duration {
	clipped := make([]interval, 0, len(spans))
	for _, s := range spans {
		lo, hi := max(s.lo, win.lo), min(s.hi, win.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, s := range clipped {
		switch {
		case !open:
			cur, open = s, true
		case s.lo <= cur.hi:
			cur.hi = max(cur.hi, s.hi)
		default:
			total += cur.hi - cur.lo
			cur = s
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

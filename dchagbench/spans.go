package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// benchSpan is one span the benchmark records around a call into the
// program. Parent links a span to the span that caused it (0: none) and Op
// names the training step or serve request it belongs to (-1: none).
type benchSpan struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Op     int64   `json:"op"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
}

// spanLog keeps the benchmark's own spans in memory until the run ends.
// Spans other than per-request ones are mirrored onto an obs tracer row so
// the exported Chrome trace shows them beside the program's spans. A nil
// *spanLog records nothing, which is how untraced runs use it.
type spanLog struct {
	epoch  time.Time
	mirror *obs.Rank
	next   atomic.Int64

	mu    sync.Mutex
	spans []benchSpan // guarded by mu
}

func newSpanLog(epoch time.Time, mirror *obs.Rank) *spanLog {
	return &spanLog{epoch: epoch, mirror: mirror}
}

// openSpan is a span begun but not yet ended.
type openSpan struct {
	l      *spanLog
	id     int64
	parent int64
	name   string
	op     int64
	start  time.Time
	obs    obs.Span
}

// begin opens a span. name must be a constant: mirrored spans store it by
// reference in the obs ring.
func (l *spanLog) begin(name string, parent, op int64, mirror bool) openSpan {
	if l == nil {
		return openSpan{}
	}
	s := openSpan{l: l, id: l.next.Add(1), parent: parent, name: name, op: op, start: time.Now()}
	if mirror {
		s.obs = l.mirror.Begin(name, "bench")
	}
	return s
}

func (s openSpan) end() {
	if s.l == nil {
		return
	}
	now := time.Now()
	s.obs.End()
	s.l.mu.Lock()
	s.l.spans = append(s.l.spans, benchSpan{
		ID: s.id, Parent: s.parent, Name: s.name, Op: s.op,
		Start: float64(s.start.Sub(s.l.epoch).Nanoseconds()) / 1e3,
		Dur:   float64(now.Sub(s.start).Nanoseconds()) / 1e3,
	})
	s.l.mu.Unlock()
}

// write saves the recorded spans as a JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	blob, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// spanTotals sums the complete spans of one tracer row that start inside
// win and satisfy keep: total duration, count, and attached bytes.
func spanTotals(evs []obs.Event, win interval, keep func(obs.Event) bool) (dur time.Duration, calls int, bytes int64) {
	for _, ev := range evs {
		if ev.Ph != 'X' || ev.Start < win.lo || ev.Start >= win.hi || !keep(ev) {
			continue
		}
		dur += ev.Dur
		calls++
		bytes += ev.Bytes
	}
	return dur, calls, bytes
}

// startsIn reports whether t falls inside one of spans.
func startsIn(spans []interval, t time.Duration) bool {
	for _, s := range spans {
		if t >= s.lo && t < s.hi {
			return true
		}
	}
	return false
}

func named(name string) func(obs.Event) bool {
	return func(ev obs.Event) bool { return ev.Name == name }
}

func inCat(cat string) func(obs.Event) bool {
	return func(ev obs.Event) bool { return ev.Cat == cat }
}

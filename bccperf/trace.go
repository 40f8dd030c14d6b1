package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Spans of one op share Op; Parent is the index of the span whose
// work this one splits (-1 for the op's root). A direct call on the same
// input is recorded as a child of the call it splits even though it runs
// after it, so self times are computed from durations: a span's self
// time is its duration minus its children's durations.
type span struct {
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	ops    int64
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

// newOp returns a fresh op id.
func (t *tracer) newOp() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a span and returns its index, the parent id of its children.
func (t *tracer) add(op int64, parent int32, name string, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{op, parent, name, int64(start.Sub(t.origin)), int64(end.Sub(t.origin))})
	return int32(len(t.spans) - 1)
}

// addDur records a span of duration d that starts at start.
func (t *tracer) addDur(op int64, parent int32, name string, start time.Time, d time.Duration) int32 {
	return t.add(op, parent, name, start, start.Add(d))
}

// opStats is the self-time breakdown of every op with one root name.
type opStats struct {
	walls []float64            // root durations, ms
	self  map[string][]float64 // per layer name: its self time in each op, ms
	dur   map[string][]float64 // per layer name: its duration in each op, ms
}

// breakdown groups the spans by op and returns the stats of the ops
// whose root span is named root. A layer that occurs several times in an
// op contributes the sum of its self times.
func (t *tracer) breakdown(root string) opStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := opStats{self: map[string][]float64{}, dur: map[string][]float64{}}
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End-s.Start) / 1e6
		}
	}
	type sums struct{ self, dur map[string]float64 }
	perOp := map[int64]sums{}
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == root {
			st.walls = append(st.walls, float64(s.End-s.Start)/1e6)
			perOp[s.Op] = sums{map[string]float64{}, map[string]float64{}}
		}
	}
	for i, s := range t.spans {
		if m, ok := perOp[s.Op]; ok {
			d := float64(s.End-s.Start) / 1e6
			m.self[s.Name] += d - child[i]
			m.dur[s.Name] += d
		}
	}
	for _, m := range perOp {
		for name, v := range m.self {
			st.self[name] = append(st.self[name], v)
			st.dur[name] = append(st.dur[name], m.dur[name])
		}
	}
	return st
}

// med returns the median self time of a layer (NaN when absent).
func (st opStats) med(name string) float64 {
	return median(append([]float64(nil), st.self[name]...))
}

// medDur returns the median duration of a layer (NaN when absent).
func (st opStats) medDur(name string) float64 {
	return median(append([]float64(nil), st.dur[name]...))
}

// sumCheck compares the sum of the layers' median self times with the
// median wall time of the op; it passes within ±10%.
func (st opStats) sumCheck(layers ...string) (ratio float64, ok bool) {
	var sum float64
	for _, l := range layers {
		sum += st.med(l)
	}
	wall := median(append([]float64(nil), st.walls...))
	ratio = sum / wall
	return ratio, math.Abs(ratio-1) <= 0.10
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkNote formats one sum-check line of the report.
func checkNote(r *result, op string, st opStats, layers ...string) {
	ratio, ok := st.sumCheck(layers...)
	verdict := "pass"
	if !ok {
		verdict = "FAIL"
	}
	r.note("sumcheck %s ops=%d layers=%v sum/wall=%.3f %s", op, len(st.walls), layers, ratio, verdict)
}

// overheadNote reports tracing overhead for one end-to-end median.
func overheadNote(r *result, name string, untraced, traced float64) {
	r.note("overhead %s untraced=%.4f traced=%.4f diff=%+.4f (%+.1f%%)",
		name, untraced, traced, traced-untraced, 100*(traced-untraced)/untraced)
}

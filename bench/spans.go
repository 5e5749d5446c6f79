package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced pass
// around the repo's public functions. Parent is the id of the span that
// caused it (0 for a root). An aggregate span stands for Calls calls
// too small and too many to record one by one (limiter decisions): its
// duration is their summed time, laid at the start of its parent.
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent"`
	Name      string  `json:"name"`
	Workload  string  `json:"workload"`
	Start     float64 `json:"start_s"`
	End       float64 `json:"end_s"`
	Calls     int64   `json:"calls,omitempty"`
	Aggregate bool    `json:"aggregate,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// clockCost is what timing an empty interval reads: the cost of the
// clock itself, subtracted from sampled calls too short to ignore it.
var clockCost = func() time.Duration {
	d := make([]float64, 1001)
	for i := range d {
		start := time.Now()
		d[i] = float64(time.Since(start))
	}
	return time.Duration(median(d))
}()

// recorder keeps every span of a traced pass in memory; they are
// written out once the pass ends. Safe for concurrent use.
type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	return r.addSpan(span{
		Parent: parent, Name: name,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
	})
}

// addAggregate records calls summed to total inside parent, which
// started at start.
func (r *recorder) addAggregate(name string, parent int, start time.Time, total time.Duration, calls int64) int {
	s := start.Sub(r.t0).Seconds()
	return r.addSpan(span{
		Parent: parent, Name: name, Start: s, End: s + total.Seconds(),
		Calls: calls, Aggregate: true,
	})
}

func (r *recorder) addSpan(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	s.Workload = r.workload
	r.spans = append(r.spans, s)
	return s.ID
}

// begin opens a span that children can name as their parent before it
// ends.
func (r *recorder) begin(name string, parent int) int {
	return r.add(name, parent, time.Now(), time.Now())
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// time runs fn inside a span and returns the span id.
func (r *recorder) time(name string, parent int, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	return r.add(name, parent, start, time.Now()), err
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// total sums the durations of every span named name.
func total(spans []span, name string) float64 { return sum(durations(spans, name)) }

// durations returns the durations (seconds) of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name  string
	Count int64
	Total float64
	Self  float64
}

// selfTimes totals every span name's duration and self time: the
// span's duration minus the part its direct children cover. Children
// of one span run on the parent's goroutine, so they never overlap.
func selfTimes(spans []span) []layerTime {
	child := make(map[int]float64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerTime{Name: s.Name}
			rows[s.Name] = row
		}
		if s.Calls > 0 {
			row.Count += s.Calls
		} else {
			row.Count++
		}
		row.Total += s.dur()
		row.Self += s.dur() - child[s.ID]
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Self > out[k].Self })
	return out
}

// printSelfTimes writes the self-time table.
func printSelfTimes(w io.Writer, rows []layerTime) {
	fmt.Fprintf(w, "%-28s %12s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %12d %12.4f %12.4f\n", r.Name, r.Count, r.Total, r.Self)
	}
}

// writeSpans saves the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

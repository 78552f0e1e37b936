package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of one query's handling. Measured spans
// come from the benchmark's own clocks around calls into the program;
// replay spans hold the duration of a pure function re-run on captured
// bytes and are placed inside their parent (see addReplay).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Query  int64   `json:"query"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // microseconds since the recorder's epoch
	End    float64 `json:"end_us"`
	Replay bool    `json:"replay,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how untraced runs stay untraced.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.epoch).Nanoseconds()) / 1e3 }

// add records a measured span and returns its id.
func (r *recorder) add(q int64, name string, parent int, start, end time.Time) int {
	return r.addUS(q, name, parent, r.us(start), r.us(end), false)
}

func (r *recorder) addUS(q int64, name string, parent int, start, end float64, replay bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: q, Name: name, Start: start, End: end, Replay: replay})
	return id
}

// addReplay records a replayed duration as a child of parent, starting
// at offset microseconds from the parent's start, or ending at its end
// when offset is negative.
func (r *recorder) addReplay(q int64, name string, parent int, offset float64, d time.Duration) int {
	r.mu.Lock()
	p := r.spans[parent]
	r.mu.Unlock()
	us := float64(d.Nanoseconds()) / 1e3
	start := p.Start + offset
	if offset < 0 {
		start = p.End - us
	}
	return r.addUS(q, name, parent, start, start+us, true)
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as one JSON document at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.snapshot()})
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// chain returns the children of p that block it: every replay (they
// stand for steps the parent runs one after another) and, among the
// measured children, the one that ends last, then the one that ends
// last before it starts, and so on. Concurrent shard calls that finish
// earlier than the slowest do not block the parent.
func chain(spans []span, ids []int) []span {
	var out, measured []span
	for _, id := range ids {
		if spans[id].Replay {
			out = append(out, spans[id])
		} else {
			measured = append(measured, spans[id])
		}
	}
	sort.Slice(measured, func(i, j int) bool { return measured[i].End > measured[j].End })
	limit := math.Inf(1)
	for _, k := range measured {
		if k.End <= limit {
			out = append(out, k)
			limit = k.Start
		}
	}
	return out
}

// selfTime is a span's duration minus the durations of the children
// that block it. It is negative when those children do not fit inside
// it, which reconcile reports.
func selfTime(spans []span, children map[int][]int, id int) float64 {
	t := spans[id].dur()
	for _, k := range chain(spans, children[id]) {
		t -= k.dur()
	}
	return t
}

// pathTotal walks a query's span tree from id along the blocking
// children and sums their self times, counting a negative one as zero.
// The sum is the root's duration exactly when no self time is
// negative; it is more when a layer does not fit inside its caller.
func pathTotal(spans []span, children map[int][]int, id int) float64 {
	t := math.Max(selfTime(spans, children, id), 0)
	for _, k := range chain(spans, children[id]) {
		t += pathTotal(spans, children, k.ID)
	}
	return t
}

// Reconciliation tolerance: on each traced query the critical-path self
// times must add up to the client latency within reconcileRel of it
// plus reconcileAbsUS, and at most reconcileMaxBad of the queries may
// miss that. A miss means a measured or replayed layer does not fit
// inside the layer that calls it, so the layers claim more time than
// the client waited.
const (
	reconcileRel    = 0.02
	reconcileAbsUS  = 50
	reconcileMaxBad = 0.01
)

// reconcile checks that on every query rooted at a span named
// rootName the layers on the critical path add up to the root.
func reconcile(spans []span, rootName string) error {
	children := make(map[int][]int)
	var roots []int
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		} else if s.Name == rootName {
			roots = append(roots, s.ID)
		}
	}
	bad := 0
	worst, worstQ := 0.0, int64(0)
	for _, id := range roots {
		root := spans[id].dur()
		miss := pathTotal(spans, children, id) - root
		if miss > reconcileRel*root+reconcileAbsUS {
			bad++
		}
		if root > 0 && miss/root > worst {
			worst, worstQ = miss/root, spans[id].Query
		}
	}
	if float64(bad) > reconcileMaxBad*float64(len(roots)) {
		return fmt.Errorf("layer self times exceed client latency by more than %.0f%%+%dus on %d of %d queries (worst %.1f%%, query %d)",
			100*reconcileRel, reconcileAbsUS, bad, len(roots), 100*worst, worstQ)
	}
	return nil
}

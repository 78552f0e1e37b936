package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mloc/internal/cache"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/plod"
	"mloc/internal/query"
	"mloc/internal/server"
)

// shardWire mirrors the router's per-shard report, so a replayed merge
// encodes the same bytes the router does.
type shardWire struct {
	Node      string  `json:"node"`
	Rows      string  `json:"rows"`
	OK        bool    `json:"ok"`
	Hedged    bool    `json:"hedged,omitempty"`
	Failovers int     `json:"failovers,omitempty"`
	Error     string  `json:"error,omitempty"`
	MS        float64 `json:"ms"`
}

// responseWire decodes both a data node's and the router's answer; the
// routed fields stay zero on a data node's.
type responseWire struct {
	server.ResultWire
	Degraded bool        `json:"degraded"`
	Shards   []shardWire `json:"shards"`
}

// sample is one completed operation as the client saw it.
type sample struct {
	class     string
	fail      string
	latency   time.Duration
	respBytes int
	indexOnly bool
	level     int
	// The response's accounting (zero when it failed).
	total      int
	timeIO     float64
	timeDec    float64
	timeRec    float64
	virt       float64
	bytesRead  int64
	blocks     int
	bins       int
	binsPruned int
	binsTotal  int // bins of every store the query reached
	// Traced runs only.
	shardBytes int
	shardSkew  float64
}

// httpTarget drives closed-loop clients against a data node or router
// over loopback HTTP.
type httpTarget struct {
	base    string
	varName string
	shape   grid.Shape
	bins    int
	f       *field
	qs      []qdesc
	block   int // the plan's mix repeats every block queries
	exp     []expect
	bodies  [][]byte
	clients int
	routed  bool
	sims    []*pfs.Sim
	caches  []*cache.Cache
	tr      *tracing  // nil when untraced
	rec     *recorder // nil when untraced
	cursor  atomic.Int64
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	samples     []sample
	wall        time.Duration
	before      layerCounters
	after       layerCounters
	heapPeakMiB float64
	routerDelta map[string]int64
	requests    int64
	shed        int64
	stage       *stageResult // insitu only
}

func newHTTPTarget(base, varName string, shape grid.Shape, bins int, f *field, qs []qdesc, block, clients int, routed bool) (*httpTarget, error) {
	t := &httpTarget{base: base, varName: varName, shape: shape, bins: bins, f: f, qs: qs, block: block, clients: clients, routed: routed}
	for i := range qs {
		b, err := json.Marshal(qs[i].wire(varName))
		if err != nil {
			return nil, fmt.Errorf("encoding query %d: %w", i, err)
		}
		t.bodies = append(t.bodies, b)
	}
	t.exp = answerAll(qs, func(int) *field { return f })
	return t, nil
}

// phase runs the clients for d, and past d, for at most half as long
// again, until they have answered atLeast queries between them and the
// queries sent end on a whole block of the plan, so every phase runs
// whole mixes. With traced
// set the middlewares record and every query leaves spans in t.rec.
func (t *httpTarget) phase(ctx context.Context, d time.Duration, atLeast int, traced bool) (*phaseResult, error) {
	if t.tr != nil {
		t.tr.reset()
		t.tr.on.Store(traced)
	}
	res := &phaseResult{}
	var routerBefore map[string]int64
	if t.routed {
		var err error
		if routerBefore, err = t.stats(ctx); err != nil {
			return nil, err
		}
	}
	res.before = readCounters(t.sims, t.caches)
	heap := startHeapSampler()
	start := time.Now()
	deadline, limit := start.Add(d), start.Add(d*3/2)
	var done atomic.Int64
	// next claims the next query id, or reports that the phase is over.
	next := func() (int64, bool) {
		for {
			id := t.cursor.Load()
			now := time.Now()
			if !now.Before(limit) || !now.Before(deadline) && done.Load() >= int64(atLeast) && id%int64(t.block) == 0 {
				return 0, false
			}
			if t.cursor.CompareAndSwap(id, id+1) {
				return id, true
			}
		}
	}
	per := make([][]sample, t.clients)
	var wg sync.WaitGroup
	for c := 0; c < t.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			cl := &http.Client{Transport: tp}
			for ctx.Err() == nil {
				id, ok := next()
				if !ok {
					break
				}
				per[c] = append(per[c], t.one(ctx, cl, id, traced))
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.heapPeakMiB = heap.finish()
	res.after = readCounters(t.sims, t.caches)
	for _, s := range per {
		res.samples = append(res.samples, s...)
	}
	if t.routed {
		after, err := t.stats(ctx)
		if err != nil {
			return nil, err
		}
		res.routerDelta = make(map[string]int64)
		for k, v := range after {
			res.routerDelta[k] = v - routerBefore[k]
		}
	}
	if t.tr != nil {
		t.tr.on.Store(false)
		t.tr.mu.Lock()
		res.requests, res.shed = t.tr.requests, t.tr.shed
		t.tr.mu.Unlock()
	}
	return res, ctx.Err()
}

// stats reads the router's /stats counters.
func (t *httpTarget) stats(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("router stats: %w", err)
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("router stats: %w", err)
	}
	return m, nil
}

// one sends query id (the id-th of the cyclic plan), waits for the
// whole answer, decodes it and checks it against the oracle.
func (t *httpTarget) one(ctx context.Context, cl *http.Client, id int64, traced bool) sample {
	qi := int(id % int64(len(t.qs)))
	q := &t.qs[qi]
	s := sample{class: q.class, indexOnly: q.indexOnly, level: q.plod}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/query", bytes.NewReader(t.bodies[qi]))
	if err != nil {
		s.fail = failError
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(queryHeader, strconv.FormatInt(id, 10))
		t.tr.current.Store(id)
	}
	t0 := time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		s.latency = time.Since(t0)
		s.fail = failError
		logf("query %d: %v", id, err)
		return s
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	var rw responseWire
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, &rw)
	}
	t2 := time.Now()
	s.latency, s.respBytes = t2.Sub(t0), len(raw)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		s.fail = failShed
	case resp.StatusCode != http.StatusOK || err != nil:
		s.fail = failError
		logf("query %d: status %d: %v", id, resp.StatusCode, err)
	case rw.Degraded:
		s.fail = failDegraded
	}
	if s.fail != okOutcome {
		return s
	}
	ms := make([]match, len(rw.Matches))
	for i, m := range rw.Matches {
		ms[i] = match{index: m.Index, value: m.Value}
	}
	fail, cerr := check(t.f, q, t.exp[qi], rw.MatchesTotal, rw.Truncated, t.routed, ms)
	if cerr != nil {
		s.fail = fail
		if fail == failWrong {
			logf("query %d (%s): %v", id, q.class, cerr)
		}
	}
	s.total = rw.MatchesTotal
	s.timeIO, s.timeDec, s.timeRec, s.virt = rw.Time.IO, rw.Time.Decompress, rw.Time.Reconstruct, rw.Time.Total
	s.bytesRead, s.blocks, s.bins, s.binsPruned = rw.BytesRead, rw.BlocksRead, rw.BinsAccessed, rw.BinsPruned
	s.binsTotal = t.bins
	if t.routed {
		s.binsTotal = t.bins * len(rw.Shards)
	}
	if traced {
		t.trace(id, t0, t1, t2, &rw, &s)
	}
	return s
}

// trace turns one query's captures into spans and replays the pure
// functions of each layer on the captured bytes.
func (t *httpTarget) trace(id int64, t0, t1, t2 time.Time, rw *responseWire, s *sample) {
	nodes := 1
	if t.routed {
		nodes = len(rw.Shards)
	}
	caps := t.tr.take(id, t.routed, nodes)
	root := t.rec.add(id, "client", -1, t0, t2)
	t.rec.add(id, "client.decode", root, t1, t2)
	parent := root
	if t.routed {
		for _, c := range caps {
			if c.layer == "router" {
				parent = t.rec.add(id, "router.handle", root, c.start, c.end)
			}
		}
	}
	// The first answer to each distinct sub-request is the one the
	// router merged; later ones lost a hedge race.
	winners := map[string]capture{}
	var order []string
	for _, c := range caps {
		if c.layer != "server" {
			continue
		}
		s.shardBytes += len(c.respBody)
		k := string(c.reqBody)
		w, seen := winners[k]
		if !seen {
			order = append(order, k)
		}
		if !seen || c.end.Before(w.end) {
			winners[k] = c
		}
	}
	var shardRes []*server.ResultWire
	var durs []float64
	for _, k := range order {
		c := winners[k]
		if c.status != http.StatusOK {
			continue
		}
		r := t.nodeSpans(id, parent, c)
		if r != nil {
			shardRes = append(shardRes, r)
		}
		durs = append(durs, c.end.Sub(c.start).Seconds())
	}
	if len(durs) > 1 {
		var sum, max float64
		for _, d := range durs {
			sum += d
			if d > max {
				max = d
			}
		}
		s.shardSkew = max / (sum / float64(len(durs)))
	}
	if t.routed && parent != root && len(shardRes) == len(rw.Shards) {
		t.rec.addReplay(id, "router.merge", parent, -1, replayMerge(t.varName, shardRes, rw))
	}
}

// nodeSpans records one data-node request: the measured handle span and
// the parse, queue and encode layers inside it. It returns the decoded
// node answer for the merge replay.
func (t *httpTarget) nodeSpans(id int64, parent int, c capture) *server.ResultWire {
	h := t.rec.add(id, "server.handle", parent, c.start, c.end)
	var err error
	parse := fastest(func() {
		var w *server.QueryWire
		if w, err = server.ParseRequest(bytes.NewReader(c.reqBody)); err == nil {
			_, err = w.ToRequest(t.shape)
		}
	})
	if err != nil {
		logf("query %d: replaying parse: %v", id, err)
		return nil
	}
	t.rec.addReplay(id, "server.parse", h, 0, parse)
	var rw server.ResultWire
	if err := json.Unmarshal(c.respBody, &rw); err != nil {
		logf("query %d: decoding node answer: %v", id, err)
		return nil
	}
	queued := time.Duration(rw.QueuedMS * float64(time.Millisecond))
	t.rec.addReplay(id, "server.queue", h, float64(parse.Nanoseconds())/1e3, queued)
	t.rec.addReplay(id, "server.encode", h, -1, replayEncode(&rw, queued))
	return &rw
}

// replays is how often a replay runs; the fastest run is kept, since a
// run can only be slowed, never sped up, by the other client, the
// collector or the host.
const replays = 3

func fastest(f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < replays; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// replayEncode re-runs a data node's answer path after the engine:
// ToResult, BuildResult and the JSON encoding of WriteJSON.
func replayEncode(rw *server.ResultWire, queued time.Duration) time.Duration {
	var buf bytes.Buffer
	return fastest(func() {
		buf.Reset()
		out := server.BuildResult(rw.Var, rw.ToResult(), maxMatches, queued)
		out.TraceID, out.Trace = rw.TraceID, rw.Trace
		_ = json.NewEncoder(&buf).Encode(out) // encoding a decoded answer cannot fail
	})
}

// replayMerge re-runs the router's gather step on the shard answers:
// ToResult per shard, query.MergeResults, BuildResult and the encoding
// of the routed answer.
func replayMerge(name string, shards []*server.ResultWire, rw *responseWire) time.Duration {
	var buf bytes.Buffer
	return fastest(func() {
		buf.Reset()
		parts := make([]*query.Result, len(shards))
		truncated := false
		for i, sr := range shards {
			parts[i] = sr.ToResult()
			truncated = truncated || sr.Truncated
		}
		out := responseWire{ResultWire: server.BuildResult(name, query.MergeResults(parts), maxMatches, 0),
			Degraded: rw.Degraded, Shards: rw.Shards}
		out.Truncated = out.Truncated || truncated
		out.TraceID = rw.TraceID
		_ = json.NewEncoder(&buf).Encode(out) // encoding a merged answer cannot fail
	})
}

// usefulBytes is the part of a query's answer a client asked for: four
// bytes of position per match plus, unless index-only, the bytes per
// value its PLoD level reads.
func usefulBytes(s *sample) float64 {
	per := 4
	if !s.indexOnly {
		level := s.level
		if level == 0 {
			level = plod.MaxLevel
		}
		per += plod.BytesPerValue(level)
	}
	return float64(s.total * per)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func tinyConfig(t *testing.T, workload string, seed int64, trace bool) runConfig {
	return runConfig{workload: workload, seed: seed, seconds: 1, trace: trace, spansDir: t.TempDir(), sz: tinySizes()}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

// TestSmoke runs every workload at tiny sizes, untraced and traced.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, 3, trace)
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
				if _, err := os.Stat(filepath.Join(cfg.spansDir, name+"-3.json")); err != nil {
					t.Errorf("%s: spans not written: %v", name, err)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, d.name, m)
				}
			}
		}
	}
}

// counts is what a query's answer must repeat exactly for one seed.
type counts struct {
	bytesRead           int64
	blocks, bins, total int
	matchBytes          int // encoded size of the match list
}

// httpCounts sends the first n planned queries one at a time.
func httpCounts(t *testing.T, tgt *httpTarget, n int) []counts {
	t.Helper()
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	cl := &http.Client{Transport: tp}
	var out []counts
	for i := 0; i < n; i++ {
		resp, err := cl.Post(tgt.base+"/query", "application/json", bytes.NewReader(tgt.bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		var rw responseWire
		err = json.NewDecoder(resp.Body).Decode(&rw)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %v", i, resp.StatusCode, err)
		}
		mb, err := json.Marshal(rw.Matches)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, counts{rw.BytesRead, rw.BlocksRead, rw.BinsAccessed, rw.MatchesTotal, len(mb)})
	}
	return out
}

type setupCounts struct {
	perQuery []counts
	storage  float64
}

// TestSameSeedSameCounts sets every workload up twice with one seed and
// requires identical accounting: bytes read, blocks, bins, matches,
// response size and storage ratio.
func TestSameSeedSameCounts(t *testing.T) {
	ctx := context.Background()
	const n = 30
	runs := map[string]func() setupCounts{
		"explore": func() setupCounts {
			m := &measured{}
			tgt, _, closeNode, err := setupExplore(ctx, tinyConfig(t, "explore", 7, false), m)
			if err != nil {
				t.Fatal(err)
			}
			defer closeNode()
			return setupCounts{httpCounts(t, tgt, n), m.storage}
		},
		"sweep": func() setupCounts {
			m := &measured{}
			tgt, closeAll, err := setupSweep(ctx, tinyConfig(t, "sweep", 7, false), m)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll()
			return setupCounts{httpCounts(t, tgt, n), m.storage}
		},
		"insitu": func() setupCounts {
			m := &measured{}
			w, err := setupInsitu(ctx, tinyConfig(t, "insitu", 7, false), m)
			if err != nil {
				t.Fatal(err)
			}
			defer w.pipe.Drain()
			var sc setupCounts
			for i := 0; i < n; i++ {
				s := w.query(ctx, false)
				if s.fail != okOutcome {
					t.Fatalf("insitu query %d failed: %s", i, s.fail)
				}
				sc.perQuery = append(sc.perQuery, counts{s.bytesRead, s.blocks, s.bins, s.total, 0})
			}
			sc.storage = float64(w.sim.TotalSize("insitu/")) / float64(w.raw)
			return sc
		},
	}
	for name, f := range runs {
		a, b := f(), f()
		if name == "sweep" {
			// Each node's cache holds a quarter of its store and four
			// ranks fill it concurrently, so which units it evicts, and
			// the bytes and blocks read after the first eviction, follow
			// goroutine scheduling rather than the seed.
			for _, sc := range []setupCounts{a, b} {
				for i := range sc.perQuery {
					sc.perQuery[i].bytesRead, sc.perQuery[i].blocks = 0, 0
				}
			}
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two set-ups with one seed differ:\n%+v\n%+v", name, a, b)
		}
		if a.storage <= 0 {
			t.Errorf("%s: storage ratio %v", name, a.storage)
		}
	}
}

// TestSeedsDrawQueries checks that a seed fixes its plan and that
// another seed plans other queries.
func TestSeedsDrawQueries(t *testing.T) {
	f := &field{shape: []int{64, 64}, data: make([]float64, 64*64)}
	for i := range f.data {
		f.data[i] = float64(i%97) + float64(i)/1e4
	}
	plans := map[string]func(seed int64) []qdesc{
		"explore": func(seed int64) []qdesc { return planExplore(f, seed, 200) },
		"sweep":   func(seed int64) []qdesc { return planSweep(f, seed, 60) },
		"insitu":  func(seed int64) []qdesc { return planInsitu([]*field{f, f}, seed, 60) },
	}
	for name, plan := range plans {
		if !reflect.DeepEqual(plan(1), plan(1)) {
			t.Errorf("%s: one seed planned two different query lists", name)
		}
		if reflect.DeepEqual(plan(1), plan(2)) {
			t.Errorf("%s: seeds 1 and 2 planned the same queries", name)
		}
	}
	shares := map[string]int{}
	for _, q := range planExplore(f, 5, 100) {
		shares[q.class]++
	}
	for _, m := range exploreMix {
		if shares[m.class] != m.n {
			t.Errorf("explore: %d %s queries per 100, want %d", shares[m.class], m.class, m.n)
		}
	}
}

// TestOracleReportsFailures corrupts expected answers and returned
// matches and requires the oracle to flag each.
func TestOracleReportsFailures(t *testing.T) {
	ctx := context.Background()
	m := &measured{}
	tgt, _, closeNode, err := setupExplore(ctx, tinyConfig(t, "explore", 11, false), m)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNode()
	cl := &http.Client{Transport: &http.Transport{}}
	if s := tgt.one(ctx, cl, 0, false); s.fail != okOutcome {
		t.Fatalf("uncorrupted query failed: %s", s.fail)
	}
	tgt.exp[0].total++
	if s := tgt.one(ctx, cl, 0, false); s.fail != failWrong {
		t.Errorf("corrupted total: outcome %q, want %q", s.fail, failWrong)
	}
	tgt.exp[0].total--
	tgt.exp[0].idxHash ^= 1
	if s := tgt.one(ctx, cl, 0, false); s.fail != failWrong {
		t.Errorf("corrupted index hash: outcome %q, want %q", s.fail, failWrong)
	}

	f := &field{shape: []int{4, 4}, data: make([]float64, 16)}
	for i := range f.data {
		f.data[i] = 1 + float64(i)/7
	}
	q := &qdesc{lo: []int{0, 0}, hi: []int{2, 4}}
	e := answer(f, q)
	good := make([]match, 8)
	for i := range good {
		good[i] = match{index: int64(i), value: f.data[i]}
	}
	if fail, err := check(f, q, e, 8, false, false, good); fail != okOutcome {
		t.Fatalf("exact answer rejected: %v", err)
	}
	bad := append([]match(nil), good...)
	bad[3].value += 1e-12
	if fail, _ := check(f, q, e, 8, false, false, bad); fail != failWrong {
		t.Errorf("perturbed full-precision value: outcome %q", fail)
	}
	if fail, _ := check(f, q, e, 8, false, false, good[:7]); fail != failWrong {
		t.Errorf("missing match: outcome %q", fail)
	}
	pq := &qdesc{lo: q.lo, hi: q.hi, plod: 2}
	near := append([]match(nil), good...)
	near[3].value *= 1 + 1e-5
	if fail, err := check(f, pq, e, 8, false, false, near); fail != okOutcome {
		t.Errorf("PLoD-2 value within its bound rejected: %v", err)
	}
	near[3].value = good[3].value * (1 + 1e-3)
	if fail, _ := check(f, pq, e, 8, false, false, near); fail != failWrong {
		t.Errorf("PLoD-2 value outside its bound: outcome %q", fail)
	}
	// Only the router may flag a lower-bound total, and the matches
	// must still be exact.
	big := &field{shape: []int{1, maxMatches + 10}, data: make([]float64, maxMatches+10)}
	for i := range big.data {
		big.data[i] = float64(i)
	}
	all := &qdesc{}
	e = answer(big, all)
	first := make([]match, maxMatches)
	for i := range first {
		first[i] = match{index: int64(i), value: big.data[i]}
	}
	if fail, err := check(big, all, e, maxMatches+5, true, true, first); fail != lowerTotal {
		t.Errorf("routed flagged lower-bound total: outcome %q, want %q (%v)", fail, lowerTotal, err)
	}
	if fail, _ := check(big, all, e, maxMatches+5, true, false, first); fail != failWrong {
		t.Errorf("unrouted flagged lower-bound total: outcome %q, want %q", fail, failWrong)
	}
	if fail, _ := check(big, all, e, maxMatches-1, true, true, first); fail != failWrong {
		t.Errorf("routed total below the matches returned: outcome %q, want %q", fail, failWrong)
	}
	first[7].value++
	if fail, _ := check(big, all, e, maxMatches+5, true, true, first); fail != failWrong {
		t.Errorf("routed lower-bound total with a wrong value: outcome %q, want %q", fail, failWrong)
	}
}

// TestReconcile requires layers that fit inside their callers to add
// up, and a replay that overflows its caller to fail the check.
func TestReconcile(t *testing.T) {
	build := func(encodeUS float64) []span {
		r := newRecorder()
		at := func(us float64) time.Time { return r.epoch.Add(time.Duration(us * 1e3)) }
		root := r.add(1, "client", -1, at(0), at(100))
		h := r.add(1, "server.handle", root, at(10), at(80))
		r.addReplay(1, "server.parse", h, 0, 2*time.Microsecond)
		r.addReplay(1, "server.encode", h, -1, time.Duration(encodeUS*1e3))
		r.add(1, "client.decode", root, at(85), at(100))
		return r.snapshot()
	}
	if err := reconcile(build(10), "client"); err != nil {
		t.Errorf("nested layers: %v", err)
	}
	if err := reconcile(build(150), "client"); err == nil {
		t.Error("an encode replay longer than its handler passed reconciliation")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics the
// benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var got []metricDef
		for _, g := range c.got {
			got = append(got, metricDef{g.Name, g.Unit, g.Better})
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("BENCHMARK.json metrics %v, benchmark prints %v", names(got), names(c.want))
		}
	}
}

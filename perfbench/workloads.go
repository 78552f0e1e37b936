package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mloc/internal/cache"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// sizes fixes the inputs of every workload. The benchmark of record
// runs fullSizes; the tests run tinySizes.
type sizes struct {
	exploreSide    int // GTS-like grid side
	exploreQueries int // planned queries, cycled
	sweepSide      int // S3D-like grid side
	sweepQueries   int
	insituSide     int // GTS-like step side
	insituHistory  int // steps built before timing, queried while staging
	insituPool     int // distinct step fields the simulation emits, cycled
	insituQueries  int
	setupReps      int // set-ups per run; setup_s is their median
	exploreReps    int // explore's, whose set-up is short enough for more
}

func fullSizes() sizes {
	return sizes{
		exploreSide: 1024, exploreQueries: 2000,
		sweepSide: 128, sweepQueries: 400,
		insituSide: 512, insituHistory: 2, insituPool: 4, insituQueries: 2000,
		setupReps: 3, exploreReps: 5,
	}
}

func tinySizes() sizes {
	return sizes{
		exploreSide: 128, exploreQueries: 200,
		sweepSide: 32, sweepQueries: 60,
		insituSide: 32, insituHistory: 2, insituPool: 2, insituQueries: 100,
		setupReps: 2, exploreReps: 2,
	}
}

// strataBlock is the stratification block of the sweep and insitu
// plans.
const strataBlock = 20

// dataSeed fixes the generated fields: every run serves the stores
// mlocd builds from gts:SIDE and s3d:SIDE specs, whose seed defaults to
// 1, and the run's seed draws the queries and the order of the steps.
// Fields drawn per seed would differ in value distribution and
// compressibility, which moves every metric between seeds more than any
// change a benchmark run should detect.
const dataSeed = 1

// Cache sizes. explore runs at mlocd's default 64 MiB, which holds the
// whole decoded store; sweep gives each node a quarter of its store's
// decoded bytes, so the cache cannot hold the working set.
const (
	exploreCacheBytes = 64 << 20
	sweepCacheShare   = 4
)

// Query-class shares of the explore mix, per 100 queries. Region reads
// and region+value filters overlap in latency and make up 85 of them,
// so the median falls inside their distribution and p95 inside the
// previews', never in a gap between classes.
var exploreMix = []struct {
	class string
	n     int
}{{"region", 30}, {"filter", 55}, {"preview", 14}, {"index", 1}}

// exploreBlock is the number of queries in one explore mix.
func exploreBlock() int {
	n := 0
	for _, m := range exploreMix {
		n += m.n
	}
	return n
}

// measured is everything a workload run measured, before it becomes
// metrics.
type measured struct {
	setup      []float64 // wall seconds per set-up
	ingestMBs  []float64 // raw MB built per wall second, per store build or staged run
	virtIngest []float64 // virtual seconds per built or staged store
	storage    float64   // PFS bytes per raw byte
	main       *phaseResult
	traced     *phaseResult
	spans      *recorder
}

// sortedValues answers "the value below which a share p of the field
// lies".
type sortedValues []float64

func newSortedValues(data []float64) sortedValues {
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	return s
}

func (q sortedValues) at(p float64) float64 {
	i := int(p * float64(len(q)))
	if i < 0 {
		i = 0
	}
	if i >= len(q) {
		i = len(q) - 1
	}
	return q[i]
}

// window is a half-open square (or cube) of side w centred near c,
// clipped to the grid.
func window(shape []int, c []float64, w int) (lo, hi []int) {
	lo, hi = make([]int, len(shape)), make([]int, len(shape))
	for d := range shape {
		l := int(c[d]) - w/2
		if l < 0 {
			l = 0
		}
		if l+w > shape[d] {
			l = shape[d] - w
		}
		lo[d], hi[d] = l, l+w
	}
	return lo, hi
}

// designSeed fixes the parts of every plan that do not depend on the
// run's seed: the hot spots and how the strata of a block pair up.
const designSeed = 20120910

// strata spreads a block of n queries over n equal strata in each of
// dims dimensions, with a fixed pairing of strata across dimensions, so
// every block of every seed covers the same mix. The run's seed only
// draws where in its stratum each value falls and the query order;
// independent draws would move a run's medians between seeds by more
// than the regressions the benchmark must detect.
type strata [][]int

func newStrata(n, dims int) strata {
	r := rand.New(rand.NewSource(designSeed + int64(n*16+dims)))
	s := make(strata, dims)
	for j := range s {
		s[j] = r.Perm(n)
	}
	return s
}

// at is query i's value in dimension j, in [0,1).
func (s strata) at(r *rand.Rand, i, j int) float64 {
	return (float64(s[j][i]) + r.Float64()) / float64(len(s[j]))
}

// scaled maps u in [0,1) onto the integers lo..hi.
func scaled(u float64, lo, hi int) int { return lo + int(u*float64(hi-lo+1)) }

// planExplore plans the explore mix: queries clustered around a few
// hot spots whose popularity falls off as 1/rank^1.1, in blocks of 100
// with exactly the class shares of exploreMix.
func planExplore(f *field, seed int64, n int) []qdesc {
	r := rand.New(rand.NewSource(seed*1_000_003 + 1))
	side := f.shape[0]
	qt := newSortedValues(f.data)
	const hotSpots = 6
	design := rand.New(rand.NewSource(designSeed))
	hot := make([][]float64, hotSpots)
	cum := make([]float64, hotSpots)
	total := 0.0
	for k := range hot {
		hot[k] = []float64{(0.1 + 0.8*design.Float64()) * float64(side), (0.1 + 0.8*design.Float64()) * float64(side)}
		total += 1 / math.Pow(float64(k+1), 1.1)
		cum[k] = total
	}
	var block []string
	st := map[string]strata{}
	for _, m := range exploreMix {
		for i := 0; i < m.n; i++ {
			block = append(block, m.class)
		}
		st[m.class] = newStrata(m.n, 6)
	}
	qs := make([]qdesc, 0, n)
	for len(qs) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		seen := map[string]int{}
		for _, class := range block {
			if len(qs) == n {
				break
			}
			i := seen[class]
			seen[class]++
			u := func(j int) float64 { return st[class].at(r, i, j) }
			k := sort.SearchFloat64s(cum, u(0)*total)
			c := []float64{hot[k][0] + (u(1)-0.5)*float64(side)/8, hot[k][1] + (u(2)-0.5)*float64(side)/8}
			q := qdesc{class: class}
			switch class {
			case "region":
				q.lo, q.hi = window(f.shape, c, scaled(u(3), side/64, side/16))
			case "filter":
				q.lo, q.hi = window(f.shape, c, scaled(u(3), side/16, 3*side/16))
				p, w := u(4)*0.7, 0.1+u(5)*0.2
				q.vc = &[2]float64{qt.at(p), qt.at(p + w)}
			case "preview":
				// At most (side/4)^2 points: under the match cap at 1024.
				q.lo, q.hi = window(f.shape, c, scaled(u(3), side/8, side/4))
				q.plod = 2
			case "index":
				sel := 0.002 + u(4)*0.008
				p := u(5) * (1 - sel)
				q.vc = &[2]float64{qt.at(p), qt.at(p + sel)}
				q.indexOnly = true
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// planSweep plans value-range queries whose selectivity is log-uniform
// over 0.1-10 %, placed uniformly over the value distribution; half are
// index-only. Every block of strataBlock queries covers every stratum.
func planSweep(f *field, seed int64, n int) []qdesc {
	r := rand.New(rand.NewSource(seed*1_000_003 + 2))
	qt := newSortedValues(f.data)
	st := newStrata(strataBlock, 3)
	qs := make([]qdesc, 0, n)
	for len(qs) < n {
		for _, i := range r.Perm(strataBlock) {
			if len(qs) == n {
				break
			}
			sel := 0.001 * math.Pow(100, st.at(r, i, 0))
			p := st.at(r, i, 1) * (1 - sel)
			qs = append(qs, qdesc{class: "sweep", vc: &[2]float64{qt.at(p), qt.at(p + sel)}, indexOnly: st[2][i] < strataBlock/2})
		}
	}
	return qs
}

// planInsitu plans region+value queries over the history steps, in
// blocks of strataBlock that cover every stratum.
func planInsitu(steps []*field, seed int64, n int) []qdesc {
	r := rand.New(rand.NewSource(seed*1_000_003 + 3))
	qts := make([]sortedValues, len(steps))
	for i, f := range steps {
		qts[i] = newSortedValues(f.data)
	}
	st := newStrata(strataBlock, 6)
	qs := make([]qdesc, 0, n)
	for len(qs) < n {
		for _, i := range r.Perm(strataBlock) {
			if len(qs) == n {
				break
			}
			h := int(st.at(r, i, 0) * float64(len(steps)))
			side := steps[h].shape[0]
			c := []float64{st.at(r, i, 1) * float64(side), st.at(r, i, 2) * float64(side)}
			q := qdesc{class: "insitu", step: h}
			q.lo, q.hi = window(steps[h].shape, c, scaled(st.at(r, i, 3), side/16, side/4))
			p, w := st.at(r, i, 4)*0.5, 0.1+st.at(r, i, 5)*0.4
			q.vc = &[2]float64{qts[h].at(p), qts[h].at(p + w)}
			qs = append(qs, q)
		}
	}
	return qs
}

func defaultChunk(shape []int) []int {
	c := make([]int, len(shape))
	for d := range shape {
		c[d] = shape[d] / 16
		if c[d] < 1 {
			c[d] = 1
		}
	}
	return c
}

// mlocdConfig is mlocd's default store configuration: MLOC-COL, 100
// bins, the hierarchical index, chunks of side/16.
func mlocdConfig(shape []int) core.Config {
	cfg := core.DefaultConfig(defaultChunk(shape))
	cfg.HierarchicalIndex = true
	return cfg
}

// buildStore builds one store on its own clock and reports its raw MB
// per wall second and its virtual build time.
func buildStore(ctx context.Context, sim *pfs.Sim, prefix string, f *field, cfg core.Config, m *measured) (*core.Store, error) {
	clk := sim.NewClock()
	t0 := time.Now()
	st, err := core.BuildContext(ctx, sim, clk, prefix, grid.Shape(f.shape), f.data, cfg)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", prefix, err)
	}
	m.ingestMBs = append(m.ingestMBs, float64(8*len(f.data))/1e6/time.Since(t0).Seconds())
	m.virtIngest = append(m.virtIngest, clk.Now())
	return st, nil
}

// minQueries is the fewest queries a run's timed phase answers, so
// that at least ten lie beyond its 95th percentile.
const minQueries = 200

// runPhases runs the untraced timed phase, and in a traced run a second
// traced phase after it; each gets half the time and half the queries.
func runPhases(cfg runConfig, m *measured, phase func(d time.Duration, atLeast int, traced bool) (*phaseResult, error)) error {
	d, atLeast := time.Duration(cfg.seconds*float64(time.Second)), minQueries
	if cfg.trace {
		d, atLeast = d/2, atLeast/2
	}
	var err error
	if m.main, err = phase(d, atLeast, false); err != nil {
		return err
	}
	if cfg.trace {
		m.traced, err = phase(d, atLeast, true)
	}
	return err
}

// newTracingFor returns the shared middleware state and span recorder
// of a traced run, or nils.
func newTracingFor(cfg runConfig, m *measured) *tracing {
	if !cfg.trace {
		return nil
	}
	m.spans = newRecorder()
	return newTracing()
}

// setupExplore builds the explore store and its data node exploreReps
// times, keeping the last, and returns the client target over it.
func setupExplore(ctx context.Context, cfg runConfig, m *measured) (*httpTarget, *core.Store, func(), error) {
	side := cfg.sz.exploreSide
	ds := datagen.GTSLike(side, side, dataSeed)
	f := &field{shape: ds.Shape, data: ds.Vars[0].Data}
	tr := newTracingFor(cfg, m)
	var node *dataNode
	var st *core.Store
	for rep := 0; rep < cfg.sz.exploreReps; rep++ {
		if node != nil {
			node.close()
			node = nil
		}
		t0 := time.Now()
		sim := pfs.New(pfs.DefaultConfig())
		var err error
		if st, err = buildStore(ctx, sim, "mlocd/phi", f, mlocdConfig(f.shape), m); err != nil {
			return nil, nil, nil, err
		}
		if node, err = startDataNode(sim, map[string]*core.Store{"phi": st}, exploreCacheBytes, tr); err != nil {
			return nil, nil, nil, err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}
	m.storage = float64(st.TotalBytes()) / float64(8*len(f.data))
	t, err := newHTTPTarget("http://"+node.ln.addr, "phi", grid.Shape(f.shape), st.NumBins(), f,
		planExplore(f, cfg.seed, cfg.sz.exploreQueries), exploreBlock(), 2, false)
	if err != nil {
		node.close()
		return nil, nil, nil, err
	}
	t.sims, t.caches, t.tr, t.rec = []*pfs.Sim{node.sim}, []*cache.Cache{node.cache}, tr, m.spans
	return t, st, node.close, nil
}

func runExplore(ctx context.Context, cfg runConfig) (*measured, error) {
	m := &measured{}
	t, st, closeNode, err := setupExplore(ctx, cfg, m)
	if err != nil {
		return nil, err
	}
	defer closeNode()
	// Warm the cache with every unit at the two precisions the mix reads.
	for _, level := range []int{0, 2} {
		if _, err := st.QueryContext(ctx, &query.Request{PLoDLevel: level}, 4); err != nil {
			return nil, fmt.Errorf("warming the cache: %w", err)
		}
	}
	return m, runPhases(cfg, m, func(d time.Duration, atLeast int, traced bool) (*phaseResult, error) {
		return t.phase(ctx, d, atLeast, traced)
	})
}

// setupSweep builds two data nodes, each with its own store on its own
// Sim, and a router over them, setupReps times, keeping the last, and
// returns the client target over the router.
func setupSweep(ctx context.Context, cfg runConfig, m *measured) (*httpTarget, func(), error) {
	ds := datagen.S3DLike(cfg.sz.sweepSide, dataSeed)
	f := &field{shape: ds.Shape, data: ds.Vars[0].Data}
	tr := newTracingFor(cfg, m)
	cacheBytes := int64(8*len(f.data)) / sweepCacheShare
	var nodes []*dataNode
	var rn *routerNode
	var st *core.Store
	closeAll := func() {
		if rn != nil {
			rn.close()
		}
		for _, n := range nodes {
			n.close()
		}
		nodes, rn = nil, nil
	}
	for rep := 0; rep < cfg.sz.setupReps; rep++ {
		closeAll()
		t0 := time.Now()
		var addrs []string
		for i := 0; i < 2; i++ {
			sim := pfs.New(pfs.DefaultConfig())
			var err error
			if st, err = buildStore(ctx, sim, "mlocd/temp", f, mlocdConfig(f.shape), m); err != nil {
				closeAll()
				return nil, nil, err
			}
			n, err := startDataNode(sim, map[string]*core.Store{"temp": st}, cacheBytes, tr)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			nodes = append(nodes, n)
			addrs = append(addrs, n.ln.addr)
		}
		var err error
		if rn, err = startRouter(addrs, tr); err != nil {
			closeAll()
			return nil, nil, err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}
	m.storage = float64(st.TotalBytes()) / float64(8*len(f.data))
	t, err := newHTTPTarget("http://"+rn.ln.addr, "temp", grid.Shape(f.shape), st.NumBins(), f,
		planSweep(f, cfg.seed, cfg.sz.sweepQueries), strataBlock, 1, true)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	t.sims = []*pfs.Sim{nodes[0].sim, nodes[1].sim}
	t.caches, t.tr, t.rec = []*cache.Cache{nodes[0].cache, nodes[1].cache}, tr, m.spans
	return t, closeAll, nil
}

func runSweep(ctx context.Context, cfg runConfig) (*measured, error) {
	m := &measured{}
	t, closeAll, err := setupSweep(ctx, cfg, m)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	return m, runPhases(cfg, m, func(d time.Duration, atLeast int, traced bool) (*phaseResult, error) {
		return t.phase(ctx, d, atLeast, traced)
	})
}

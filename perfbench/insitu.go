package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mloc/internal/binning"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
	"mloc/internal/stage"
)

// stageResult is what the staging side of insitu measured.
type stageResult struct {
	steps       int
	failed      int
	rawBytes    float64
	wall        time.Duration
	virt        []float64 // IngestVirtualSec per staged step
	submitBlock []float64 // ms each Submit blocked
	drainMS     float64
}

// insitu is a set-up insitu workload: history stores on one Sim, the
// staging pipeline writing beside them, and the planned queries.
type insitu struct {
	cfg      runConfig
	m        *measured
	storeCfg core.Config
	history  []*field
	pool     []*field // step fields the simulation emits, in order
	qs       []qdesc
	exp      []expect
	sim      *pfs.Sim
	stores   []*core.Store
	pipe     *stage.Pipeline
	raw      int64 // raw bytes of every store on sim
	step     int   // next step number
	cursor   int   // next query
}

// setupInsitu builds the history stores and starts the pipeline
// setupReps times, keeping the last.
func setupInsitu(ctx context.Context, cfg runConfig, m *measured) (*insitu, error) {
	sz := cfg.sz
	gen := func(k int64) *field {
		ds := datagen.GTSLike(sz.insituSide, sz.insituSide, dataSeed+k)
		return &field{shape: ds.Shape, data: ds.Vars[0].Data}
	}
	w := &insitu{cfg: cfg, m: m, step: sz.insituHistory}
	for i := 0; i < sz.insituHistory; i++ {
		w.history = append(w.history, gen(int64(i)))
	}
	for _, k := range rand.New(rand.NewSource(cfg.seed)).Perm(sz.insituPool) {
		w.pool = append(w.pool, gen(int64(sz.insituHistory+k)))
	}
	w.qs = planInsitu(w.history, cfg.seed, sz.insituQueries)
	w.exp = answerAll(w.qs, func(i int) *field { return w.history[w.qs[i].step] })
	if cfg.trace {
		m.spans = newRecorder()
	}
	w.storeCfg = core.ISOConfig(defaultChunk(w.history[0].shape))
	for rep := 0; rep < sz.setupReps; rep++ {
		if w.pipe != nil {
			w.pipe.Drain()
		}
		t0 := time.Now()
		w.sim = pfs.New(pfs.DefaultConfig())
		w.stores, w.raw = nil, 0
		for i, h := range w.history {
			st, err := buildStore(ctx, w.sim, fmt.Sprintf("insitu/hist%05d/phi", i), h, w.storeCfg, m)
			if err != nil {
				return nil, err
			}
			w.stores = append(w.stores, st)
			w.raw += int64(8 * len(h.data))
		}
		if err := w.startPipeline(); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}
	// The set-up builds are not the workload's ingest; the staged steps
	// are.
	m.ingestMBs, m.virtIngest = nil, nil
	return w, nil
}

func (w *insitu) startPipeline() error {
	var err error
	w.pipe, err = stage.New(stage.Config{FS: w.sim, Store: w.storeCfg, Prefix: "insitu", Workers: 1})
	if err != nil {
		return fmt.Errorf("staging pipeline: %w", err)
	}
	return nil
}

func runInsitu(ctx context.Context, cfg runConfig) (*measured, error) {
	m := &measured{}
	w, err := setupInsitu(ctx, cfg, m)
	if err != nil {
		return nil, err
	}
	// Queries run until the pipeline drains, so they far outnumber
	// minQueries.
	if err := runPhases(cfg, m, func(d time.Duration, _ int, traced bool) (*phaseResult, error) {
		return w.phase(ctx, d, traced)
	}); err != nil {
		return nil, err
	}
	m.storage = float64(w.sim.TotalSize("insitu/")) / float64(w.raw)
	return m, nil
}

// phase stages fresh steps for d and then drains the pipeline, while
// one client queries the history until the pipeline has drained, so
// every step is built beside reads.
func (w *insitu) phase(ctx context.Context, d time.Duration, traced bool) (*phaseResult, error) {
	if w.pipe == nil {
		if err := w.startPipeline(); err != nil {
			return nil, err
		}
	}
	res := &phaseResult{stage: &stageResult{}}
	res.before = readCounters([]*pfs.Sim{w.sim}, nil)
	heap := startHeapSampler()
	start := time.Now()
	staged := make(chan struct{})
	go func() {
		defer close(staged)
		w.ingest(ctx, start, start.Add(d), traced, res.stage)
	}()
	for running := true; running && ctx.Err() == nil; {
		select {
		case <-staged:
			running = false
		default:
			res.samples = append(res.samples, w.query(ctx, traced))
		}
	}
	<-staged
	res.wall = time.Since(start)
	res.heapPeakMiB = heap.finish()
	res.after = readCounters([]*pfs.Sim{w.sim}, nil)
	if !traced {
		sr := res.stage
		w.m.ingestMBs = append(w.m.ingestMBs, sr.rawBytes/1e6/sr.wall.Seconds())
		w.m.virtIngest = append(w.m.virtIngest, sr.virt...)
	}
	return res, ctx.Err()
}

// ingest submits steps until the deadline, then drains the pipeline.
func (w *insitu) ingest(ctx context.Context, start, deadline time.Time, traced bool, sr *stageResult) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		f := w.pool[(w.step-w.cfg.sz.insituHistory)%len(w.pool)]
		t0 := time.Now()
		err := w.pipe.SubmitContext(ctx, stage.StepVar{Step: w.step, Name: "phi", Shape: grid.Shape(f.shape), Data: f.data})
		t1 := time.Now()
		if traced {
			w.m.spans.add(int64(-w.step), "stage.submit", -1, t0, t1)
		}
		if err != nil {
			sr.failed++
			continue
		}
		sr.submitBlock = append(sr.submitBlock, ms(t1.Sub(t0)))
		sr.rawBytes += float64(8 * len(f.data))
		w.step++
	}
	t0 := time.Now()
	results := w.pipe.Drain()
	t1 := time.Now()
	w.pipe = nil
	if traced {
		w.m.spans.add(0, "stage.drain", -1, t0, t1)
	}
	sr.drainMS = ms(t1.Sub(t0))
	sr.wall = t1.Sub(start)
	for _, r := range results {
		sr.steps++
		if r.Err != nil || r.Store == nil {
			sr.failed++
			logf("staging step %d: %v", r.Step, r.Err)
			continue
		}
		sr.virt = append(sr.virt, r.IngestVirtualSec)
		w.raw += 8 * r.Store.Shape().Elems()
	}
}

// query runs the next planned query through Store.QueryContext and
// checks it against the oracle.
func (w *insitu) query(ctx context.Context, traced bool) sample {
	qi := w.cursor % len(w.qs)
	id := int64(w.cursor)
	w.cursor++
	q := &w.qs[qi]
	s := sample{class: q.class, level: q.plod, indexOnly: q.indexOnly}
	req := &query.Request{VC: &binning.ValueConstraint{Min: q.vc[0], Max: q.vc[1]}}
	reg, err := grid.NewRegion(q.lo, q.hi)
	if err != nil {
		s.fail = failError
		logf("query %d: %v", id, err)
		return s
	}
	req.SC = &reg
	st := w.stores[q.step]
	t0 := time.Now()
	r, err := st.QueryContext(ctx, req, 4)
	t1 := time.Now()
	s.latency = t1.Sub(t0)
	if traced {
		w.m.spans.add(id, "core.query", -1, t0, t1)
	}
	if err != nil {
		s.fail = failError
		logf("query %d: %v", id, err)
		return s
	}
	n := len(r.Matches)
	if n > maxMatches {
		n = maxMatches
	}
	ms := make([]match, n)
	for i, x := range r.Matches[:n] {
		ms[i] = match{index: x.Index, value: x.Value}
	}
	if fail, cerr := check(w.history[q.step], q, w.exp[qi], len(r.Matches), len(r.Matches) > maxMatches, false, ms); cerr != nil {
		s.fail = fail
		logf("query %d: %v", id, cerr)
	}
	s.total = len(r.Matches)
	s.timeIO, s.timeDec, s.timeRec, s.virt = r.Time.IO, r.Time.Decompress, r.Time.Reconstruct, r.Time.Total()
	s.bytesRead, s.blocks, s.bins, s.binsPruned = r.BytesRead, r.BlocksRead, r.BinsAccessed, r.BinsPruned
	s.binsTotal = st.NumBins()
	return s
}

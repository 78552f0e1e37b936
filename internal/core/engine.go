package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/cache"
	"mloc/internal/grid"
	"mloc/internal/mpi"
	"mloc/internal/obs"
	"mloc/internal/pfs"
	"mloc/internal/plod"
	"mloc/internal/query"
)

// task is one unit of query work: one (bin, unit) pair plus what must
// be done with it.
type task struct {
	bin  int
	unit int
	// needData: the unit's data pieces must be read (value retrieval,
	// or VC filtering in a misaligned bin).
	needData bool
	// filterVC: the unit's values must be checked against the VC
	// (misaligned bins only; aligned bins satisfy it by construction).
	filterVC bool
}

// execPlan is what the executor runs. planQuery builds it for Query and
// Explain, planFetch for FetchAt; execute runs either one.
type execPlan struct {
	req *query.Request
	// level is the resolved PLoD level data pieces are read and decoded
	// at.
	level int
	// tasks lists the work in column order (bin-major, then storage
	// order within the bin).
	tasks []task
	// bins counts the bins holding at least one task.
	bins int
	// hier, on the hierarchical path, carries the inside-subtree roots
	// answered from the vindex by runNodes and the pruning accounting.
	hier *binning.Selection
	// positions, when set, restricts the output to these linear
	// indices; a unit holding none of them is neither read nor decoded.
	positions *bitmap.Bitmap
}

// rankOut accumulates one rank's results. reassemble and filter split
// the Reconstruct component for span attribution (index/offset decoding
// vs. the match-filter loop); their sum always equals time.Reconstruct.
type rankOut struct {
	matches    []query.Match
	time       query.Components
	bytes      int64
	blocks     int
	cacheHits  int
	nodesRead  int
	reassemble float64
	filter     float64
	// fetchWall is the wall time spent in PFS reads.
	fetchWall time.Duration
}

// Query executes a request over the given number of parallel ranks,
// following the paper's §III-D workflow: bin selection by VC bounds,
// chunk selection by SC mapped through the storage curve, column-order
// block assignment, per-rank fetch/decompress/filter, and a final
// gather. It is QueryContext with a background context.
func (s *Store) Query(req *query.Request, ranks int) (*query.Result, error) {
	return s.QueryContext(context.Background(), req, ranks)
}

// QueryContext is Query under a context: when ctx is canceled or its
// deadline expires, ranks stop issuing PFS reads at the next bin
// boundary and the query returns an error wrapping ctx.Err() promptly,
// so a disconnected caller frees its serving slot instead of running
// the access to completion.
func (s *Store) QueryContext(ctx context.Context, req *query.Request, ranks int) (*query.Result, error) {
	return s.execute(ctx, ranks, func() (*execPlan, error) { return s.planQuery(req) })
}

// execute runs a plan over the given number of parallel ranks: the
// planner runs under the "plan" span, the tasks and vindex nodes are
// assigned to ranks, each rank runs its bins and then its nodes, and
// the rank outputs are gathered into one result whose latency is the
// slowest rank's.
func (s *Store) execute(ctx context.Context, ranks int, planner func() (*execPlan, error)) (*query.Result, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("core: ranks %d < 1", ranks)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: query canceled: %w", err)
	}
	_, ps := obs.StartSpan(ctx, "plan")
	p, err := planner()
	if err != nil {
		ps.End()
		return nil, err
	}
	perRank := s.assignTasks(p.tasks, ranks)
	var perRankNodes [][]binning.NodeRef
	if p.hier != nil {
		loads := make([]int, ranks)
		for r := range perRank {
			loads[r] = len(perRank[r])
		}
		perRankNodes = assignNodes(p.hier.Inside, loads)
		ps.SetInt("bins_pruned", int64(p.hier.PrunedLeaves))
		ps.SetInt("bins_covered", int64(p.hier.CoveredLeaves))
		ps.SetInt("index_nodes", int64(len(p.hier.Inside)))
	}
	ps.SetInt("tasks", int64(len(p.tasks)))
	ps.SetInt("bins", int64(p.bins))
	ps.SetInt("ranks", int64(ranks))
	ps.End()

	outs := make([]rankOut, ranks)
	clks := s.fs.NewClocks(ranks)
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		r := c.Rank()
		rctx, rs := obs.StartSpan(ctx, "rank")
		rs.SetInt("rank", int64(r))
		o := &outs[r]
		rerr := s.runBins(rctx, clks[r], p, perRank[r], o)
		if rerr == nil && perRankNodes != nil {
			rerr = s.runNodes(rctx, clks[r], p, perRankNodes[r], o)
		}
		rs.SetFloat("virt_total_s", o.time.Total())
		rs.SetInt("matches", int64(len(o.matches)))
		rs.SetInt("bytes", o.bytes)
		rs.SetInt("cache_hits", int64(o.cacheHits))
		rs.End()
		return rerr
	})
	if err != nil {
		return nil, err
	}

	res := &query.Result{BinsAccessed: p.bins}
	if p.hier != nil {
		// Covered leaves were answered from aggregated node bitmaps;
		// they count as accessed (their contents were served) even
		// though no per-bin file was touched.
		res.BinsAccessed += p.hier.CoveredLeaves
		res.BinsPruned = p.hier.PrunedLeaves
		res.BinsCovered = p.hier.CoveredLeaves
	}
	var slowest float64
	for i := range outs {
		res.Matches = append(res.Matches, outs[i].matches...)
		res.BytesRead += outs[i].bytes
		res.BlocksRead += outs[i].blocks
		res.CacheHits += outs[i].cacheHits
		res.IndexNodesRead += outs[i].nodesRead
		if t := outs[i].time.Total(); t >= slowest {
			slowest = t
			res.Time = outs[i].time
		}
	}
	res.Sort()
	return res, nil
}

// hierPlan reports whether a request takes the hierarchical index path:
// the store has a vindex, the request is value-constrained, and it is
// index-only, so fully-inside subtrees resolve from aggregated node
// bitmaps with no data reads. Value-retrieval requests decode the data
// anyway, which the per-bin layout already serves optimally.
func (s *Store) hierPlan(req *query.Request) bool {
	return s.vidx != nil && req.VC != nil && req.IndexOnly
}

// planQuery validates a request, resolves its PLoD level, and selects
// bins by VC and chunks by SC, producing the task list in column order.
// On the hierarchical path only boundary leaves become tasks; the plan
// carries the inside-subtree roots and the pruning accounting.
func (s *Store) planQuery(req *query.Request) (*execPlan, error) {
	if err := req.Validate(s.meta.shape); err != nil {
		return nil, err
	}
	p := &execPlan{req: req, level: req.PLoDLevel}
	if p.level == 0 {
		p.level = plod.MaxLevel
	}
	if s.meta.mode == ModeFloats && p.level != plod.MaxLevel {
		return nil, fmt.Errorf("core: store mode %q does not support PLoD level %d (use the planes/COL mode)",
			s.meta.mode, p.level)
	}

	// Bin selection.
	type binSel struct {
		bin      int
		filterVC bool
	}
	var sel []binSel
	if s.hierPlan(req) {
		hs := s.vidx.tree.Select(*req.VC)
		p.hier = &hs
		sel = make([]binSel, 0, len(hs.Boundary))
		for _, b := range hs.Boundary {
			sel = append(sel, binSel{bin: b, filterVC: true})
		}
	} else if req.VC != nil {
		aligned, mis := s.scheme.SelectBins(*req.VC)
		sel = make([]binSel, 0, len(aligned)+len(mis))
		for _, b := range aligned {
			sel = append(sel, binSel{bin: b})
		}
		for _, b := range mis {
			sel = append(sel, binSel{bin: b, filterVC: true})
		}
		sort.Slice(sel, func(i, j int) bool { return sel[i].bin < sel[j].bin })
	} else {
		sel = make([]binSel, 0, len(s.meta.bins))
		for b := range s.meta.bins {
			sel = append(sel, binSel{bin: b})
		}
	}

	// Chunk selection.
	var chunkSet map[int64]bool
	if req.SC != nil {
		ids := s.chunks.OverlappingChunks(*req.SC)
		chunkSet = make(map[int64]bool, len(ids))
		for _, id := range ids {
			chunkSet[id] = true
		}
	}

	maxTasks := 0
	for _, bs := range sel {
		maxTasks += len(s.meta.bins[bs.bin].units)
	}
	p.tasks = make([]task, 0, maxTasks)
	for _, bs := range sel {
		bm := &s.meta.bins[bs.bin]
		touched := false
		for ui := range bm.units {
			if chunkSet != nil && !chunkSet[bm.units[ui].chunkID] {
				continue
			}
			needData := !req.IndexOnly || bs.filterVC
			p.tasks = append(p.tasks, task{bin: bs.bin, unit: ui, needData: needData, filterVC: bs.filterVC})
			touched = true
		}
		if touched {
			p.bins++
		}
	}
	return p, nil
}

// dataPieces returns how many leading data pieces of a unit a read at
// the PLoD level needs: the planes up to that level in planes mode, the
// one float stream in floats mode. Data reads, decodes and Explain all
// size a unit's data from it.
func (s *Store) dataPieces(level int) int {
	if s.meta.mode == ModePlanes {
		return plod.PlanesForLevel(level)
	}
	return 1
}

// minNodesPerRank keeps node fan-out worthwhile: every rank that
// touches the vindex pays an open plus at least one seek, so tiny node
// sets concentrate on few ranks instead of spreading that fixed cost
// everywhere.
const minNodesPerRank = 8

// assignNodes splits the inside-subtree roots into contiguous runs
// (each run's vindex reads stay adjacent and coalesce) and hands the
// runs to the ranks with the lightest task load, so node reads overlap
// boundary-bin work instead of extending the slowest rank.
func assignNodes(nodes []binning.NodeRef, loads []int) [][]binning.NodeRef {
	ranks := len(loads)
	out := make([][]binning.NodeRef, ranks)
	if len(nodes) == 0 {
		return out
	}
	k := (len(nodes) + minNodesPerRank - 1) / minNodesPerRank
	if k > ranks {
		k = ranks
	}
	// Ranks ordered by ascending task load, ties by rank for determinism.
	order := make([]int, ranks)
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(i, j int) bool { return loads[order[i]] < loads[order[j]] })
	per := (len(nodes) + k - 1) / k
	for i := 0; i < k; i++ {
		lo, hi := i*per, i*per+per
		if hi > len(nodes) {
			hi = len(nodes)
		}
		out[order[i]] = nodes[lo:hi]
	}
	return out
}

// assignTasks splits the task list across ranks. Column order hands
// each rank a contiguous slice (few bins, thus few files, per rank);
// round-robin stripes tasks across ranks (the ablation alternative,
// which maximizes file sharing and contention).
func (s *Store) assignTasks(tasks []task, ranks int) [][]task {
	out := make([][]task, ranks)
	switch s.assignment {
	case AssignRoundRobin:
		for i, t := range tasks {
			r := i % ranks
			out[r] = append(out[r], t)
		}
	default: // AssignColumn
		per := (len(tasks) + ranks - 1) / ranks
		for r := 0; r < ranks; r++ {
			lo := r * per
			hi := lo + per
			if lo > len(tasks) {
				lo = len(tasks)
			}
			if hi > len(tasks) {
				hi = len(tasks)
			}
			out[r] = tasks[lo:hi]
		}
	}
	return out
}

// runBins executes one rank's tasks bin by bin, so each bin's files are
// opened once and its reads coalesce.
func (s *Store) runBins(ctx context.Context, clk *pfs.Clock, p *execPlan, tasks []task, out *rankOut) error {
	for lo := 0; lo < len(tasks); {
		hi := lo + 1
		for hi < len(tasks) && tasks[hi].bin == tasks[lo].bin {
			hi++
		}
		if err := s.runBin(ctx, clk, p, tasks[lo:hi], out); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// extent is a byte range in a file.
type extent struct{ off, length int64 }

// binUnit is one task's state inside runBin.
type binUnit struct {
	task
	meta    *unitMeta
	ix      pointIndexer
	offsets []int32
	// cached holds the unit's values when the decode-cache probe hit.
	cached []float64
}

// runBin executes one rank's tasks within a single bin. Cancellation is
// checked on entry (a bin is the engine's unit of I/O, so its boundary
// is the soonest point at which stopping saves PFS work) and before each
// unit's offset decode. The unit indices
// are read and their offsets decoded first; with a position bitmap, a
// unit holding no selected point drops out there, before any data read.
// Units resident in the decode cache need neither a data read nor a
// decode; the rest are read at the plan's level, and misses decode
// through the cache's single-flight path so concurrent queries
// decompress each unit once.
func (s *Store) runBin(ctx context.Context, clk *pfs.Clock, p *execPlan, tasks []task, out *rankOut) error {
	bin := tasks[0].bin
	if s.hookBeforeBin != nil {
		s.hookBeforeBin(bin)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: query canceled at bin %d: %w", bin, err)
	}
	ctx, bs := obs.StartSpan(ctx, "bin")
	defer bs.End()
	bs.SetInt("bin", int64(bin))
	bs.SetInt("units", int64(len(tasks)))
	before := *out
	bm := &s.meta.bins[bin]

	extents := make([]extent, len(tasks))
	for i, t := range tasks {
		u := &bm.units[t.unit]
		extents[i] = extent{u.indexOff, u.indexLen}
	}
	idxMap, err := s.readExtents(clk, binIndexPath(s.prefix, bin), extents, out)
	if err != nil {
		return err
	}
	units := make([]binUnit, 0, len(tasks))
	for _, t := range tasks {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: query canceled at bin %d unit %d: %w", bin, t.unit, err)
		}
		bu := binUnit{task: t, meta: &bm.units[t.unit]}
		raw, err := idxMap.slice(bu.meta.indexOff, bu.meta.indexLen)
		if err != nil {
			return fmt.Errorf("core: bin %d unit %d index: %w", bin, t.unit, err)
		}
		bu.ix = newPointIndexer(s.meta.shape, s.chunks.ChunkRegionByID(bu.meta.chunkID))
		selected := true
		reassemble := clk.MeasureCPU(func() {
			bu.offsets, err = decodeOffsets(raw, int(bu.meta.count))
			if err == nil && p.positions != nil {
				selected = bu.ix.anyIn(bu.offsets, p.positions)
			}
		})
		out.reassemble += reassemble
		out.time.Reconstruct += reassemble
		if err != nil {
			return fmt.Errorf("core: bin %d unit %d index: %w", bin, t.unit, err)
		}
		if selected {
			units = append(units, bu)
		}
	}

	pieces := s.dataPieces(p.level)
	dataExtents := make([]extent, 0, len(units)*pieces)
	for i := range units {
		bu := &units[i]
		if !bu.needData {
			continue
		}
		if s.decodeCache != nil {
			if vals, ok := s.decodeCache.Get(s.cacheKey(bin, bu.unit, p.level)); ok {
				bu.cached = vals
				continue
			}
		}
		for k := 0; k < pieces; k++ {
			dataExtents = append(dataExtents, extent{bu.meta.pieceOff[k], bu.meta.pieceLen[k]})
		}
	}
	var dataMap *extentMap
	if len(dataExtents) > 0 {
		if dataMap, err = s.readExtents(clk, binDataPath(s.prefix, bin), dataExtents, out); err != nil {
			return err
		}
	}

	for i := range units {
		bu := &units[i]
		var values []float64
		if bu.needData {
			if values, err = s.unitValues(ctx, clk, bu.task, bu.meta, p.level, dataMap, bu.cached, out); err != nil {
				return fmt.Errorf("core: bin %d unit %d data: %w", bin, bu.unit, err)
			}
		}
		s.emit(clk, p, bu, values, out)
	}
	costEvents(bs, &before, out)
	return nil
}

// readExtents opens path and reads the extents in coalesced runs,
// charging the bytes, the virtual I/O time and the wall time to out.
// Bins and the vindex step both read through it.
func (s *Store) readExtents(clk *pfs.Clock, path string, extents []extent, out *rankOut) (*extentMap, error) {
	t0, wall0 := clk.Now(), time.Now()
	if err := s.fs.Open(clk, path); err != nil {
		return nil, err
	}
	m, n, err := readCoalesced(s.fs, clk, path, extents)
	if err != nil {
		return nil, err
	}
	out.bytes += n
	out.time.IO += clk.Now() - t0
	out.fetchWall += time.Since(wall0)
	return m, nil
}

// costEvents records a bin's (or the vindex step's) cost as the
// fetch/decode/reassemble/filter events: the deltas of out since
// before. Decode and filter interleave per unit, so they are completed
// events carrying virtual-clock seconds; only reads have a wall time.
func costEvents(sp *obs.Span, before, out *rankOut) {
	sp.Event("fetch", out.fetchWall-before.fetchWall, out.time.IO-before.time.IO).
		SetInt("bytes", out.bytes-before.bytes)
	sp.Event("decode", 0, out.time.Decompress-before.time.Decompress).
		SetInt("blocks", int64(out.blocks-before.blocks))
	sp.Event("reassemble", 0, out.reassemble-before.reassemble)
	sp.Event("filter", 0, out.filter-before.filter).
		SetInt("matches", int64(len(out.matches)-len(before.matches)))
	sp.SetInt("cache_hits", int64(out.cacheHits-before.cacheHits))
}

// runNodes answers one rank's share of the inside-subtree roots from
// the vindex: the node bitmaps are fetched in one coalesced read batch
// from the vindex subfile (the payloads sit in one file in level order,
// so sorting and gap-merging the extents costs at most a seek per
// disjoint run), then each is decoded and its set bits emitted as
// matches, filtered by SC per point.
func (s *Store) runNodes(ctx context.Context, clk *pfs.Clock, p *execPlan, nodes []binning.NodeRef, out *rankOut) error {
	if len(nodes) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: query canceled before vindex nodes: %w", err)
	}
	_, vs := obs.StartSpan(ctx, "vindex")
	defer vs.End()
	vs.SetInt("nodes", int64(len(nodes)))
	before := *out
	extents := make([]extent, len(nodes))
	for i, n := range nodes {
		id := s.vidx.nodeID(n)
		extents[i] = extent{s.vidx.offs[id], s.vidx.lens[id]}
	}
	m, err := s.readExtents(clk, s.vidx.path, extents, out)
	if err != nil {
		return err
	}

	sc := p.req.SC
	coords := make([]int, s.meta.shape.Dims())
	for i, n := range nodes {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: query canceled at vindex node %d/%d: %w", n.Level, n.Index, err)
		}
		raw, err := m.slice(extents[i].off, extents[i].length)
		if err != nil {
			return fmt.Errorf("core: vindex node %d/%d: %w", n.Level, n.Index, err)
		}
		var w bitmap.WAH
		out.time.Decompress += clk.MeasureCPU(func() {
			err = w.UnmarshalBinary(raw)
		})
		if err != nil {
			return fmt.Errorf("core: vindex node %d/%d: %w", n.Level, n.Index, err)
		}
		if w.Len() != s.vidx.bitLen {
			return fmt.Errorf("core: vindex node %d/%d covers %d positions, grid has %d",
				n.Level, n.Index, w.Len(), s.vidx.bitLen)
		}
		filter := clk.MeasureCPU(func() {
			it := w.Bits()
			for lin, ok := it.Next(); ok; lin, ok = it.Next() {
				if sc != nil && !sc.Contains(s.meta.shape.Coords(lin, coords[:0])) {
					continue
				}
				out.matches = append(out.matches, query.Match{Index: lin})
			}
		})
		out.filter += filter
		out.time.Reconstruct += filter
		out.nodesRead++
	}
	costEvents(vs, &before, out)
	return nil
}

// cacheKey builds the decode-cache key for one unit of this store.
func (s *Store) cacheKey(bin, unit, level int) cache.Key {
	return cache.Key{Store: s.prefix, Bin: bin, Unit: unit, Level: level}
}

// unitValues resolves a unit's decoded values: from the probe result,
// through the decode cache's single-flight path, or by decoding
// directly when no cache is attached. It updates the rank's decompress
// time, block count, and cache-hit count.
func (s *Store) unitValues(ctx context.Context, clk *pfs.Clock, t task, u *unitMeta, level int, dataMap *extentMap, cachedVals []float64, out *rankOut) ([]float64, error) {
	if cachedVals != nil {
		out.cacheHits++
		return cachedVals, nil
	}
	if s.decodeCache == nil {
		values, decompress, err := s.decodeUnitValues(clk, u, level, dataMap)
		if err != nil {
			return nil, err
		}
		out.time.Decompress += decompress
		out.blocks++
		return values, nil
	}
	var decompress float64
	values, hit, err := s.decodeCache.GetOrCompute(ctx, s.cacheKey(t.bin, t.unit, level), func() ([]float64, error) {
		v, d, derr := s.decodeUnitValues(clk, u, level, dataMap)
		decompress = d
		return v, derr
	})
	if err != nil {
		return nil, err
	}
	if hit {
		// Another query's decode (or an insert racing the probe) served
		// this unit; the data bytes were read but no CPU was spent.
		out.cacheHits++
	} else {
		out.time.Decompress += decompress
		out.blocks++
	}
	return values, nil
}

// pointIndexer maps a chunk's row-major intra-chunk offsets to global
// row-major indices. The strides are precomputed so the per-point
// mapping avoids repeated bounds-checked Linear calls — the emit loop
// it feeds dominates high-selectivity region queries.
type pointIndexer struct {
	reg             grid.Region
	base            int64
	strides, widths []int64
}

func newPointIndexer(shape grid.Shape, reg grid.Region) pointIndexer {
	dims := shape.Dims()
	ix := pointIndexer{reg: reg, strides: make([]int64, dims), widths: make([]int64, dims)}
	ix.strides[dims-1] = 1
	for d := dims - 2; d >= 0; d-- {
		ix.strides[d] = ix.strides[d+1] * int64(shape[d+1])
	}
	for d := 0; d < dims; d++ {
		ix.base += int64(reg.Lo[d]) * ix.strides[d]
		ix.widths[d] = int64(reg.Hi[d] - reg.Lo[d])
	}
	return ix
}

// index returns the global linear index of intra-chunk offset off,
// decomposing the offset and accumulating the index in one pass; it
// also fills coords with the point's grid coordinates when non-nil.
func (ix *pointIndexer) index(off int32, coords []int) int64 {
	rem, lin := int64(off), ix.base
	for d := len(ix.widths) - 1; d >= 0; d-- {
		l := rem % ix.widths[d]
		rem /= ix.widths[d]
		lin += l * ix.strides[d]
		if coords != nil {
			coords[d] = ix.reg.Lo[d] + int(l)
		}
	}
	return lin
}

// anyIn reports whether any of the offsets maps to a set position.
func (ix *pointIndexer) anyIn(offsets []int32, positions *bitmap.Bitmap) bool {
	for _, off := range offsets {
		if positions.Get(ix.index(off, nil)) {
			return true
		}
	}
	return false
}

// emit appends a unit's qualifying points to out: each offset is mapped
// to its global index, then tested against the SC, the plan's position
// bitmap, and (misaligned bins) the VC on the unit's values.
func (s *Store) emit(clk *pfs.Clock, p *execPlan, bu *binUnit, values []float64, out *rankOut) {
	req := p.req
	var coords []int // set only when the chunk straddles the SC
	if req.SC != nil && !regionInside(bu.ix.reg, *req.SC) {
		coords = make([]int, len(bu.ix.widths))
	}
	filter := clk.MeasureCPU(func() {
		for i, off := range bu.offsets {
			lin := bu.ix.index(off, coords)
			if coords != nil && !req.SC.Contains(coords) {
				continue
			}
			if p.positions != nil && !p.positions.Get(lin) {
				continue
			}
			var v float64
			if values != nil {
				v = values[i]
				if bu.filterVC && !req.VC.Contains(v) {
					continue
				}
			}
			m := query.Match{Index: lin}
			if !req.IndexOnly {
				m.Value = v
			}
			out.matches = append(out.matches, m)
		}
	})
	out.filter += filter
	out.time.Reconstruct += filter
}

// decodeUnitValues reconstructs the unit's values at the given PLoD
// level (planes mode) or in full (floats mode), returning the scaled
// decompress time it charged to clk.
func (s *Store) decodeUnitValues(clk *pfs.Clock, u *unitMeta, level int, dataMap *extentMap) ([]float64, float64, error) {
	count := int(u.count)
	if s.meta.mode == ModeFloats {
		raw, err := dataMap.slice(u.pieceOff[0], u.pieceLen[0])
		if err != nil {
			return nil, 0, err
		}
		var values []float64
		d := clk.MeasureCPU(func() {
			values, err = s.floatCodec.DecodeFloats(raw, make([]float64, 0, count))
		})
		if err != nil {
			return nil, d, err
		}
		if len(values) != count {
			return nil, d, fmt.Errorf("decoded %d values, want %d", len(values), count) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
		}
		return values, d, nil
	}

	nPlanes := s.dataPieces(level)
	planes := make([][]byte, nPlanes)
	var decompress float64
	for p := 0; p < nPlanes; p++ {
		raw, err := dataMap.slice(u.pieceOff[p], u.pieceLen[p])
		if err != nil {
			return nil, decompress, err
		}
		want := count * plod.PlaneWidth(p)
		if p < s.meta.compPlanes && u.rawPlanes&(1<<uint(p)) == 0 {
			var dec []byte
			decompress += clk.MeasureCPU(func() {
				dec, err = s.byteCodec.DecodeBytes(raw, make([]byte, 0, want))
			})
			if err != nil {
				return nil, decompress, err
			}
			planes[p] = dec
		} else {
			planes[p] = raw
		}
		if len(planes[p]) != want {
			return nil, decompress, fmt.Errorf("plane %d has %d bytes, want %d", p, len(planes[p]), want) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
		}
	}
	var values []float64
	decompress += clk.MeasureCPU(func() {
		values = plod.Assemble(planes, level, count, plod.FillCentered, make([]float64, 0, count))
	})
	return values, decompress, nil
}

// decodeOffsets expands the delta-uvarint intra-chunk offsets. The
// varint decode is inlined with a single-byte fast path because this
// stream is the inner loop of every index read.
func decodeOffsets(raw []byte, count int) ([]int32, error) {
	out := make([]int32, count)
	prev := int32(0)
	pos := 0
	n := len(raw)
	for i := 0; i < count; i++ {
		if pos >= n {
			return nil, fmt.Errorf("truncated offset stream at entry %d", i) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
		}
		b := raw[pos]
		if b < 0x80 {
			// Fast path: deltas are almost always < 128 (one bin's
			// points inside a chunk sit a few positions apart).
			pos++
			prev += int32(b)
			out[i] = prev
			continue
		}
		var d uint64
		var shift uint
		for {
			if pos >= n {
				return nil, fmt.Errorf("truncated offset stream at entry %d", i) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
			}
			c := raw[pos]
			pos++
			d |= uint64(c&0x7F) << shift
			if c < 0x80 {
				break
			}
			shift += 7
			if shift > 35 {
				return nil, fmt.Errorf("malformed offset varint at entry %d", i) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
			}
		}
		prev += int32(d)
		out[i] = prev
	}
	if pos != n {
		return nil, fmt.Errorf("offset stream has %d trailing bytes", n-pos) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
	}
	return out, nil
}

// regionInside reports whether inner is fully contained in outer.
func regionInside(inner, outer grid.Region) bool {
	for d := range inner.Lo {
		if inner.Lo[d] < outer.Lo[d] || inner.Hi[d] > outer.Hi[d] {
			return false
		}
	}
	return true
}

// extentMap holds coalesced read buffers for extent lookups.
type extentMap struct {
	base []int64
	bufs [][]byte
}

// slice returns the bytes for an extent previously covered by a
// coalesced read.
func (m *extentMap) slice(off, length int64) ([]byte, error) {
	if length == 0 {
		return nil, nil
	}
	i := sort.Search(len(m.base), func(i int) bool { return m.base[i] > off })
	if i == 0 {
		return nil, fmt.Errorf("extent [%d,%d) not loaded", off, off+length) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
	}
	i--
	rel := off - m.base[i]
	if rel+length > int64(len(m.bufs[i])) {
		return nil, fmt.Errorf("extent [%d,%d) exceeds loaded range", off, off+length) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
	}
	return m.bufs[i][rel : rel+length], nil
}

// readCoalesced sorts and merges the extents and issues one PFS read
// per merged extent, charging clk. Extents separated by gaps up to the
// simulator's CoalesceGap are merged too: reading through a small gap
// costs less than the seek it avoids, which is exactly the paper's
// rationale for curve-ordered layouts (§III-B2).
func readCoalesced(fs *pfs.Sim, clk *pfs.Clock, path string, extents []extent) (*extentMap, int64, error) {
	if len(extents) == 0 {
		return &extentMap{}, 0, nil
	}
	maxGap := fs.CoalesceGap()
	sorted := append([]extent(nil), extents...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].off < sorted[j].off })
	merged := make([]extent, 0, len(sorted))
	cur := sorted[0]
	for _, e := range sorted[1:] {
		if e.length == 0 {
			continue
		}
		if cur.length == 0 {
			cur = e
			continue
		}
		if e.off <= cur.off+cur.length+maxGap {
			// Adjacent, overlapping, or within the economical gap:
			// extend (gap bytes are read and paid for).
			if end := e.off + e.length; end > cur.off+cur.length {
				cur.length = end - cur.off
			}
			continue
		}
		merged = append(merged, cur)
		cur = e
	}
	if cur.length > 0 {
		merged = append(merged, cur)
	}
	m := &extentMap{base: make([]int64, 0, len(merged)), bufs: make([][]byte, 0, len(merged))}
	var total int64
	for _, e := range merged {
		buf, err := fs.ReadAt(clk, path, e.off, e.length)
		if err != nil {
			return nil, total, err
		}
		m.base = append(m.base, e.off)
		m.bufs = append(m.bufs, buf)
		total += e.length
	}
	return m, total, nil
}

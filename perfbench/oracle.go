package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"

	"mloc/internal/plod"
	"mloc/internal/server"
)

// maxMatches is the per-response match cap of mlocd's defaults.
const maxMatches = 65536

// field is one generated variable: the values in row-major order and
// the grid shape.
type field struct {
	shape []int
	data  []float64
}

// qdesc is one query as the benchmark plans it. It converts to the
// wire body the client sends and to the engine request insitu issues.
type qdesc struct {
	class     string
	vc        *[2]float64 // inclusive value range, nil for none
	lo, hi    []int       // half-open region, nil for the whole domain
	plod      int         // 0 = full precision
	indexOnly bool
	step      int // history step (insitu only)
}

// wire is the query's POST /query body.
func (q *qdesc) wire(name string) server.QueryWire {
	w := server.QueryWire{Var: name, PLoD: q.plod, IndexOnly: q.indexOnly}
	if q.vc != nil {
		lo, hi := q.vc[0], q.vc[1]
		w.VC = &server.VCWire{Min: &lo, Max: &hi}
	}
	if q.lo != nil {
		w.SC = &server.SCWire{Lo: append([]int(nil), q.lo...), Hi: append([]int(nil), q.hi...)}
	}
	return w
}

// expect is a query's brute-force answer: the exact match count, and a
// hash of the indexes of the first min(total, cap) matches by index.
// Values are checked against the field itself.
type expect struct {
	total   int
	n       int
	idxHash uint64
}

// answer computes the expected answer by scanning the field.
func answer(f *field, q *qdesc) expect {
	h := fnv.New64a()
	var e expect
	var buf [8]byte
	forRegion(f.shape, q.lo, q.hi, func(idx int64) {
		v := f.data[idx]
		if q.vc != nil && (v < q.vc[0] || v > q.vc[1]) {
			return
		}
		e.total++
		if e.n < maxMatches {
			e.n++
			putIndex(&buf, idx)
			_, _ = h.Write(buf[:]) // hash.Hash writes never fail
		}
	})
	e.idxHash = h.Sum64()
	return e
}

// answerAll answers every query, on as many goroutines as there are
// processors; fieldOf gives the field query i reads.
func answerAll(qs []qdesc, fieldOf func(i int) *field) []expect {
	out := make([]expect, len(qs))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				out[i] = answer(fieldOf(i), &qs[i])
			}
		}(w)
	}
	wg.Wait()
	return out
}

func putIndex(buf *[8]byte, idx int64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(idx >> (8 * i))
	}
}

// forRegion calls fn with the row-major index of every point of the
// half-open region [lo, hi) in increasing order; nil bounds mean the
// whole grid.
func forRegion(shape, lo, hi []int, fn func(int64)) {
	dims := len(shape)
	if lo == nil {
		lo = make([]int, dims)
		hi = shape
	}
	for d := range shape {
		if lo[d] >= hi[d] {
			return
		}
	}
	strides := make([]int64, dims)
	strides[dims-1] = 1
	for d := dims - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * int64(shape[d+1])
	}
	pos := append([]int(nil), lo...)
	for {
		var base int64
		for d := 0; d < dims-1; d++ {
			base += int64(pos[d]) * strides[d]
		}
		for x := lo[dims-1]; x < hi[dims-1]; x++ {
			fn(base + int64(x))
		}
		d := dims - 2
		for ; d >= 0; d-- {
			pos[d]++
			if pos[d] < hi[d] {
				break
			}
			pos[d] = lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// match is one returned match, whatever its source.
type match struct {
	index int64
	value float64
}

// outcome classes of a checked operation. Every class but okOutcome and
// lowerTotal is a failed operation.
const (
	okOutcome    = ""
	failError    = "error"    // transport error, non-200 or undecodable response
	failShed     = "shed"     // 429 or 503 from admission control
	failDegraded = "degraded" // a routed answer missing failed shards
	failWrong    = "wrong"    // an answer that disagrees with the oracle unflagged
	// lowerTotal is a routed answer, flagged truncated, whose
	// matches_total is a lower bound of the true count because a shard
	// truncated its own answer: the router's stated behaviour, so not a
	// failure, but counted apart (router.lower_total_frac).
	lowerTotal = "lower_total"
)

// check compares a response with the expected answer. total and
// truncated are the response's matches_total and truncated flag. The
// returned class is okOutcome when every check passes: the total is
// exact, the matches are the first min(total, cap) by index, full
// precision values are bit-equal and PLoD values are within the
// level's precision bound. routed says the answer came through the
// router: there a total flagged by truncated may be a lower bound
// (lowerTotal; every other check still applies), while a data node or
// the engine reports the full count always.
func check(f *field, q *qdesc, e expect, total int, truncated, routed bool, ms []match) (string, error) {
	class, err := okOutcome, error(nil)
	if total != e.total {
		if !routed || !truncated || total > e.total || total < len(ms) {
			return failWrong, fmt.Errorf("matches_total %d, want %d", total, e.total)
		}
		class, err = lowerTotal, fmt.Errorf("matches_total %d is a lower bound of %d", total, e.total)
	}
	if len(ms) != e.n {
		return failWrong, fmt.Errorf("%d matches returned, want %d", len(ms), e.n)
	}
	if truncated != (e.total > e.n) {
		return failWrong, fmt.Errorf("truncated=%v with %d of %d matches", truncated, e.n, e.total)
	}
	h := fnv.New64a()
	var buf [8]byte
	bound := 0.0
	if q.plod != 0 && q.plod != plod.MaxLevel {
		bound = plod.RelErrorBound(q.plod, plod.FillCentered)
	}
	for i, m := range ms {
		if m.index < 0 || m.index >= int64(len(f.data)) {
			return failWrong, fmt.Errorf("match %d index %d outside the grid", i, m.index)
		}
		putIndex(&buf, m.index)
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
		if q.indexOnly {
			continue
		}
		want := f.data[m.index]
		if bound == 0 {
			if math.Float64bits(m.value) != math.Float64bits(want) {
				return failWrong, fmt.Errorf("match %d value %v, want %v", m.index, m.value, want)
			}
		} else if math.Abs(m.value-want) > bound*math.Abs(want) {
			return failWrong, fmt.Errorf("match %d PLoD-%d value %v outside %g of %v", m.index, q.plod, m.value, bound, want)
		}
	}
	if h.Sum64() != e.idxHash {
		return failWrong, fmt.Errorf("match indexes differ from the first %d brute-force matches", e.n)
	}
	return class, err
}

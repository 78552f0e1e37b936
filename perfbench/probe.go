package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"mloc/internal/cache"
	"mloc/internal/pfs"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

// goCounters is a reading of the Go runtime's cumulative counters.
type goCounters struct {
	totalAlloc uint64
	gcCPU      float64
	busyCPU    float64
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readGo() goCounters {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goCounters{
		gcCPU:      s[0].Value.Float64(),
		busyCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
		totalAlloc: s[3].Value.Uint64(),
	}
}

// heapSampler records the live heap (the bytes of heap objects a GC
// cycle found reachable) after every GC cycle while it runs. It reads
// that rather than the heap in use at each instant, whose peak mostly
// measures how much garbage the collector's pacing let pile up.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		cycles := s[0].Value.Uint64()
		var live []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				if len(live) == 0 {
					live = append(live, float64(s[1].Value.Uint64()))
				}
				h.done <- live
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != cycles {
				cycles = c
				live = append(live, float64(s[1].Value.Uint64()))
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the high-water live heap in
// MiB: the 90th percentile over the GC cycles seen. The maximum is not
// used: whether one cycle happened to mark while the largest answers
// were in flight moved it by a quarter between runs of one seed.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	return quantile(<-h.done, 0.9) / (1 << 20)
}

// layerCounters is a reading of the program's cumulative layer
// counters, summed over every node of a workload.
type layerCounters struct {
	pfs   pfs.Stats
	cache cache.Stats
	goc   goCounters
}

func readCounters(sims []*pfs.Sim, caches []*cache.Cache) layerCounters {
	var lc layerCounters
	for _, s := range sims {
		st := s.Stats()
		lc.pfs.BytesRead += st.BytesRead
		lc.pfs.BytesWritten += st.BytesWritten
		lc.pfs.Seeks += st.Seeks
		lc.pfs.Opens += st.Opens
		lc.pfs.Reads += st.Reads
		for i, b := range st.OSTBusy {
			if i >= len(lc.pfs.OSTBusy) {
				lc.pfs.OSTBusy = append(lc.pfs.OSTBusy, 0)
			}
			lc.pfs.OSTBusy[i] += b
		}
	}
	for _, c := range caches {
		if c == nil {
			continue
		}
		st := c.Stats()
		lc.cache.Hits += st.Hits
		lc.cache.Misses += st.Misses
		lc.cache.Evictions += st.Evictions
		lc.cache.Waits += st.Waits
		lc.cache.Bytes += st.Bytes
	}
	lc.goc = readGo()
	return lc
}

// ostImbalance is the busiest OST's busy-time delta over the mean.
func ostImbalance(before, after []float64) float64 {
	if len(after) == 0 {
		return 0
	}
	var sum, max float64
	for i, a := range after {
		d := a
		if i < len(before) {
			d -= before[i]
		}
		sum += d
		if d > max {
			max = d
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(after)))
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package main

import (
	"sort"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_qps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"virt_latency_p50_s", "s", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"heap_peak_mb", "MiB", "lower"},
	{"storage_ratio", "ratio", "lower"},
	{"ingest_mb_s", "MB/s", "higher"},
	{"virt_ingest_s", "s", "lower"},
}

// perLayer are the metrics of a traced run, in print order. A layer a
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"client.decode_ms", "ms", "lower"},
	{"client.response_kb", "KiB", "lower"},
	{"client.transport_ms", "ms", "lower"},
	{"server.handle_ms", "ms", "lower"},
	{"server.queue_ms", "ms", "lower"},
	{"server.parse_us", "us", "lower"},
	{"server.encode_ms", "ms", "lower"},
	{"server.engine_ms", "ms", "lower"},
	{"server.shed_frac", "ratio", "lower"},
	{"router.handle_ms", "ms", "lower"},
	{"router.self_ms", "ms", "lower"},
	{"router.merge_ms", "ms", "lower"},
	{"router.fanout", "count", "lower"},
	{"router.shard_kb", "KiB", "lower"},
	{"router.shard_skew", "ratio", "lower"},
	{"router.hedges_per_query", "count", "lower"},
	{"router.failovers_per_query", "count", "lower"},
	{"router.lower_total_frac", "ratio", "lower"},
	{"core.virt_io_s", "s", "lower"},
	{"core.virt_decompress_s", "s", "lower"},
	{"core.virt_reconstruct_s", "s", "lower"},
	{"core.bytes_read_kb", "KiB", "lower"},
	{"core.blocks_read", "count", "lower"},
	{"core.bins_accessed", "count", "lower"},
	{"core.bins_pruned_frac", "ratio", "higher"},
	{"core.useful_read_ratio", "ratio", "higher"},
	{"core.query_ms", "ms", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.evictions_per_query", "count", "lower"},
	{"cache.waits_per_query", "count", "lower"},
	{"cache.mb", "MiB", "lower"},
	{"pfs.reads_per_query", "count", "lower"},
	{"pfs.seeks_per_query", "count", "lower"},
	{"pfs.opens_per_query", "count", "lower"},
	{"pfs.write_mb", "MB", "lower"},
	{"pfs.ost_imbalance", "ratio", "lower"},
	{"stage.submit_block_ms", "ms", "lower"},
	{"stage.drain_ms", "ms", "lower"},
	{"go.alloc_kb_per_query", "KiB", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"obs.trace_overhead", "ratio", "lower"},
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency)
	}
	return out
}

// answered keeps the samples that carry a response's accounting.
func answered(ss []sample) []sample {
	var out []sample
	for _, s := range ss {
		if s.fail == okOutcome || s.fail == lowerTotal || s.fail == failWrong {
			out = append(out, s)
		}
	}
	return out
}

func pick(ss []sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = f(&ss[i])
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEndMetrics computes the untraced run's metrics.
func endToEndMetrics(m *measured) map[string]float64 {
	p := m.main
	lat := latencies(p.samples)
	ok := 0
	for _, s := range p.samples {
		if s.fail == okOutcome || s.fail == lowerTotal {
			ok++
		}
	}
	attempted := len(p.samples)
	if p.stage != nil {
		attempted += p.stage.steps
		ok += p.stage.steps - p.stage.failed
	}
	return map[string]float64{
		"setup_s":            median(m.setup),
		"throughput_qps":     float64(len(p.samples)) / p.wall.Seconds(),
		"latency_p50_ms":     median(lat),
		"latency_p95_ms":     quantile(lat, 0.95),
		"virt_latency_p50_s": median(pick(answered(p.samples), func(s *sample) float64 { return s.virt })),
		"ok_frac":            ratio(float64(ok), float64(attempted)),
		"heap_peak_mb":       p.heapPeakMiB,
		"storage_ratio":      m.storage,
		"ingest_mb_s":        median(m.ingestMBs),
		"virt_ingest_s":      median(m.virtIngest),
	}
}

// spanStats is the duration and self time (see selfTime) of every span,
// by name.
type spanStats struct {
	dur, self map[string][]float64 // microseconds
}

func collectSpans(spans []span) spanStats {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], s.dur())
		st.self[s.Name] = append(st.self[s.Name], selfTime(spans, children, s.ID))
	}
	return st
}

// perLayerMetrics computes the traced run's metrics from the traced
// phase, its spans and the untraced phase before it.
func perLayerMetrics(m *measured, st spanStats) map[string]float64 {
	p := m.traced
	n := float64(len(p.samples))
	ans := answered(p.samples)
	d := func(name string) float64 { return median(st.dur[name]) / 1e3 }
	self := func(name string) float64 { return median(st.self[name]) / 1e3 }
	out := map[string]float64{
		"client.decode_ms":        d("client.decode"),
		"client.response_kb":      median(pick(p.samples, func(s *sample) float64 { return float64(s.respBytes) / 1024 })),
		"client.transport_ms":     self("client"),
		"server.handle_ms":        d("server.handle"),
		"server.queue_ms":         d("server.queue"),
		"server.parse_us":         median(st.dur["server.parse"]),
		"server.encode_ms":        d("server.encode"),
		"server.engine_ms":        self("server.handle"),
		"server.shed_frac":        ratio(float64(p.shed), float64(p.requests)),
		"router.handle_ms":        d("router.handle"),
		"router.self_ms":          self("router.handle"),
		"router.merge_ms":         d("router.merge"),
		"core.virt_io_s":          median(pick(ans, func(s *sample) float64 { return s.timeIO })),
		"core.virt_decompress_s":  median(pick(ans, func(s *sample) float64 { return s.timeDec })),
		"core.virt_reconstruct_s": median(pick(ans, func(s *sample) float64 { return s.timeRec })),
		"core.bytes_read_kb":      ratio(sum(pick(ans, func(s *sample) float64 { return float64(s.bytesRead) / 1024 })), float64(len(ans))),
		"core.blocks_read":        ratio(sum(pick(ans, func(s *sample) float64 { return float64(s.blocks) })), float64(len(ans))),
		"core.bins_accessed":      ratio(sum(pick(ans, func(s *sample) float64 { return float64(s.bins) })), float64(len(ans))),
		"core.useful_read_ratio": ratio(sum(pick(ans, usefulBytes)),
			sum(pick(ans, func(s *sample) float64 { return float64(s.bytesRead) }))),
		"core.query_ms":         d("core.query"),
		"pfs.write_mb":          float64(p.after.pfs.BytesWritten-p.before.pfs.BytesWritten) / 1e6,
		"pfs.ost_imbalance":     ostImbalance(p.before.pfs.OSTBusy, p.after.pfs.OSTBusy),
		"go.alloc_kb_per_query": ratio(float64(p.after.goc.totalAlloc-p.before.goc.totalAlloc)/1024, n),
		"go.gc_cpu_frac":        ratio(p.after.goc.gcCPU-p.before.goc.gcCPU, p.after.goc.busyCPU-p.before.goc.busyCPU),
		"obs.trace_overhead":    ratio(median(latencies(p.samples)), median(latencies(m.main.samples))),
	}
	var pruned, bins float64
	for _, s := range ans {
		if s.indexOnly {
			pruned += float64(s.binsPruned)
			bins += float64(s.binsTotal)
		}
	}
	out["core.bins_pruned_frac"] = ratio(pruned, bins)
	hits := float64(p.after.cache.Hits - p.before.cache.Hits)
	misses := float64(p.after.cache.Misses - p.before.cache.Misses)
	out["cache.hit_ratio"] = ratio(hits, hits+misses)
	out["cache.evictions_per_query"] = ratio(float64(p.after.cache.Evictions-p.before.cache.Evictions), n)
	out["cache.waits_per_query"] = ratio(float64(p.after.cache.Waits-p.before.cache.Waits), n)
	out["cache.mb"] = float64(p.after.cache.Bytes) / (1 << 20)
	out["pfs.reads_per_query"] = ratio(float64(p.after.pfs.Reads-p.before.pfs.Reads), n)
	out["pfs.seeks_per_query"] = ratio(float64(p.after.pfs.Seeks-p.before.pfs.Seeks), n)
	out["pfs.opens_per_query"] = ratio(float64(p.after.pfs.Opens-p.before.pfs.Opens), n)
	if p.routerDelta != nil {
		out["router.fanout"] = ratio(float64(p.requests), n)
		out["router.shard_kb"] = median(pick(p.samples, func(s *sample) float64 { return float64(s.shardBytes) / 1024 }))
		var skews []float64
		for _, s := range p.samples {
			if s.shardSkew > 0 {
				skews = append(skews, s.shardSkew)
			}
		}
		out["router.shard_skew"] = median(skews)
		out["router.hedges_per_query"] = ratio(float64(p.routerDelta["hedges_total"]), n)
		out["router.failovers_per_query"] = ratio(float64(p.routerDelta["failovers_total"]), n)
		out["router.lower_total_frac"] = ratio(float64(countOutcome(p.samples, lowerTotal)), n)
	}
	if p.stage != nil {
		out["stage.submit_block_ms"] = median(p.stage.submitBlock)
		out["stage.drain_ms"] = p.stage.drainMS
	}
	for _, def := range perLayer {
		if _, ok := out[def.name]; !ok {
			out[def.name] = 0
		}
	}
	return out
}

func countOutcome(ss []sample, class string) int {
	n := 0
	for _, s := range ss {
		if s.fail == class {
			n++
		}
	}
	return n
}

// failures counts the failed operations of a phase by outcome class.
func failures(p *phaseResult) map[string]int {
	f := map[string]int{}
	for _, s := range p.samples {
		if s.fail != okOutcome && s.fail != lowerTotal {
			f[s.fail]++
		}
	}
	if p.stage != nil && p.stage.failed > 0 {
		f["stage"] += p.stage.failed
	}
	return f
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

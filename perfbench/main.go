// Command perfbench is the benchmark of record: it runs one workload
// against the MLOC service stack composed in-process as mlocd composes
// it, checks every answer against a brute-force oracle, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the run also records spans at every layer boundary,
// writes them under --spans-dir, checks that the layers add up to the client
// latency, and reports the per-layer metrics instead of the end-to-end
// ones. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string // where a traced run writes its spans
	sz       sizes
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object of the last output line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(context.Context, runConfig) (*measured, error){
	"explore": runExplore,
	"sweep":   runSweep,
	"insitu":  runInsitu,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: explore, sweep or insitu")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "seconds of timed load")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "directory a traced run writes <workload>-<seed>.json spans to")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.sz = fullSizes()
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload explore|sweep|insitu --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		logf("%s: %v", cfg.workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		logf("encoding the report: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload and assembles its report.
func run(ctx context.Context, cfg runConfig) (*report, error) {
	// A run takes well under a minute; one that stalls still ends inside
	// three.
	ctx, cancel := context.WithTimeout(ctx, 150*time.Second)
	defer cancel()
	m, err := workloads[cfg.workload](ctx, cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	phases := []*phaseResult{m.main}
	if m.traced != nil {
		phases = append(phases, m.traced)
	}
	for _, p := range phases {
		fails := failures(p)
		rep.Attempted += len(p.samples)
		if p.stage != nil {
			rep.Attempted += p.stage.steps
		}
		for _, k := range sortedKeys(fails) {
			rep.Failed += fails[k]
			logf("%d failed operations of class %s", fails[k], k)
		}
		if n := countOutcome(p.samples, lowerTotal); n > 0 {
			logf("%d routed answers with a flagged lower-bound total", n)
		}
		// Failures the program flags (errors, shedding, degraded
		// answers) are counted; an answer that is wrong without saying
		// so makes the run incorrect.
		if fails[failWrong] > 0 {
			rep.Correct = false
		}
	}
	byClass := map[string][]float64{}
	for _, s := range m.main.samples {
		byClass[s.class] = append(byClass[s.class], ms(s.latency))
	}
	for _, c := range sortedKeys(byClass) {
		lat := byClass[c]
		logf("class %s: %d queries, latency p5/p50/p95 %.2f/%.2f/%.2f ms", c, len(lat), quantile(lat, 0.05), median(lat), quantile(lat, 0.95))
	}
	defs, values := endToEnd, map[string]float64{}
	if cfg.trace {
		spans := m.spans.snapshot()
		root := "client"
		if cfg.workload == "insitu" {
			root = "core.query"
		}
		if err := reconcile(spans, root); err != nil {
			logf("reconciliation: %v", err)
			rep.Correct = false
		}
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
		if err := m.spans.write(path); err != nil {
			return nil, err
		}
		logf("wrote %d spans to %s", len(spans), path)
		defs, values = perLayer, perLayerMetrics(m, collectSpans(spans))
	} else {
		values = endToEndMetrics(m)
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Printf("%-28s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	return rep, nil
}

// Command perfbench measures the spec-to-survivors path end to end on one
// workload and prints one JSON result line; run.py builds and runs it.
//
//	perfbench -workload gemm -seed 0 -seconds 30 -trace 0 -root .. -dir /path/to/scratch
//
// With -trace 0 it reports the end-to-end metrics (per-spec medians of
// untraced one-spec steps, summed over specs); with -trace 1 it reports the
// per-layer metrics of a traced run, including self times and the tracing
// overhead, and writes the spans to -trace-out. Every operation's output is
// checked against an oracle; the result counts operations attempted and
// failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run())
}

// cycleWork is the least time each operation's samples of one cycle of
// steps (one step per spec) cover.
const cycleWork = 150 * time.Millisecond

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: gemm, stencil or dense")
		seed     = flag.Int64("seed", 0, "input seed (0 is the default configuration)")
		seconds  = flag.Float64("seconds", 30, "least time spent in measured steps")
		trace    = flag.Int("trace", 0, "1 runs the traced invocation and reports per-layer metrics")
		root     = flag.String("root", "..", "repository root (holds examples/specfile/space.bst)")
		dir      = flag.String("dir", "", "scratch directory for checkpoints and C builds (required)")
		traceOut = flag.String("trace-out", "", "file the traced run writes its spans to")
	)
	flag.Parse()
	if *dir == "" || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	stencil, err := os.ReadFile(filepath.Join(*root, "examples", "specfile", "space.bst"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, err := NewWorkload(*workload, *seed, string(stencil))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	workers := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	// One cycle of steps, one per spec, gives each operation at least
	// cycleWork of timed work, so a one-spec workload's samples are batches
	// as long as a 16-spec workload's cycle of samples.
	n := time.Duration(len(w.Specs))
	b := &Bench{
		W:         w,
		Workers:   workers,
		Dir:       *dir,
		CRunMS:    int(max(50*time.Millisecond, cycleWork/n).Milliseconds()),
		MinSample: cycleWork / n,
		Log:       os.Stderr,
	}
	if *trace == 1 {
		// Traced rounds time every operation once, so the spans of one
		// round describe exactly one operation.
		b.MinSample = 0
	}
	rec := hostRecord(w, *root, *dir, *trace == 1, workers)
	start := time.Now()
	if err := b.Prepare(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: prepare:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d specs, prepared in %.1fs\n", w.Name, w.Seed, len(w.Specs), time.Since(start).Seconds())

	res := result{Metrics: make(map[string]metricValue)}
	budget := time.Duration(*seconds * float64(time.Second))
	if *trace == 0 {
		values := b.Measure(budget)
		for _, m := range EndToEnd() {
			if v, ok := values[m.Name]; ok {
				res.Metrics[m.Name] = metricValue{v, m.Unit}
			}
		}
	} else {
		m, spans := b.Trace(budget)
		for _, pm := range PerLayer() {
			res.Metrics[pm.Name] = metricValue{m[pm.Name], pm.Unit}
		}
		printLayers(m)
		if *traceOut != "" {
			if err := WriteFile(*traceOut, spans, rec); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
				return 1
			}
		}
	}
	res.Attempted, res.Failed = b.Attempted, b.Failed
	res.Correct = b.Failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: %d operations, %d failed, %.1fs\n", b.Attempted, b.Failed, time.Since(start).Seconds())

	recJSON, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("record %s\n%s\n", recJSON, out)
	return 0
}

func printLayers(m map[string]float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-34s %.6g\n", k, m[k])
	}
}

package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/space"
)

// Bench holds one workload's plans, engines and oracle, and runs the
// operations over them.
type Bench struct {
	W         *Workload
	Workers   int           // worker count of the parallel operations
	Dir       string        // scratch directory for checkpoints and C builds
	CRunMS    int           // least in-process time of one spec's generated sweep per sample, ms
	MinSample time.Duration // least time one sample of a Go-side operation covers
	Log       io.Writer     // progress and failures

	Attempted, Failed int

	tr     *Tracer // nil: untraced
	spaces []*space.Space
	progs  []*plan.Program
	engs   []*engine.Compiled
	descs  []string        // plan descriptions of the first setup
	refs   []*Ref          // oracle, per spec
	seq    []*engine.Stats // first compiled sequential sweep, per spec
	// ckptEvery is each spec's checkpoint cadence in tiles.
	ckptEvery []int
}

// Prepare does the untimed work: the first setup, the oracle, a sequential
// compiled sweep whose counters every later run must reproduce, and a
// checkpointed sweep that sets each spec's snapshot cadence.
func (b *Bench) Prepare() error {
	var err error
	if b.spaces, b.progs, b.engs, err = b.setup(b.all(), -1, plan.Options{}, true); err != nil {
		return err
	}
	for i, p := range b.progs {
		b.descs = append(b.descs, p.Describe())
		ref, err := Reference(b.spaces[i], p)
		if err != nil {
			return fmt.Errorf("%s: %w", b.W.Specs[i].Name, err)
		}
		b.refs = append(b.refs, ref)
		st, err := b.engs[i].Run(engine.Options{Workers: 1, ChunkSize: chunkSize})
		if err != nil {
			return fmt.Errorf("%s: %w", b.W.Specs[i].Name, err)
		}
		if err := checkRef("compiled sweep of "+b.W.Specs[i].Name, st, ref); err != nil {
			return err
		}
		b.seq = append(b.seq, st)

		tiles := 0
		probe := &engine.CheckpointConfig{EveryTiles: math.MaxInt, OnSnapshot: func(s *engine.Snapshot) error {
			tiles = s.Tiles
			return nil
		}}
		if _, err := b.engs[i].Run(engine.Options{Workers: 1, ChunkSize: chunkSize, Checkpoint: probe}); err != nil {
			return fmt.Errorf("%s: %w", b.W.Specs[i].Name, err)
		}
		b.ckptEvery = append(b.ckptEvery, max(1, tiles/ckptSnapshots))
	}
	return nil
}

// all lists every spec index of the workload.
func (b *Bench) all() []int {
	idx := make([]int, len(b.W.Specs))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// round runs every operation once over the specs in idx, each after a GC,
// and appends each operation's seconds to samples. ops maps a metric to its
// operation span (tracing on).
func (b *Bench) round(idx []int, root int, samples map[string][]float64, ops map[string]int) {
	for _, op := range Ops {
		runtime.GC()
		span := b.tr.BeginOp(root, op.Metric)
		v, err := op.Run(b, idx, span)
		b.tr.End(span)
		if b.account(op.Metric, err); err != nil {
			continue
		}
		if samples != nil {
			samples[op.Metric] = append(samples[op.Metric], v)
		}
		if ops != nil {
			ops[op.Metric] = span
		}
	}
}

// account counts one operation and logs its failure.
func (b *Bench) account(name string, err error) {
	b.Attempted++
	if err != nil {
		b.Failed++
		fmt.Fprintf(b.Log, "FAIL %s: %v\n", name, err)
	}
}

// warmUp runs every operation once, unbatched, on the first spec only:
// first-use costs are paid outside the samples without a full extra round.
func (b *Bench) warmUp() {
	saved := b.MinSample
	b.MinSample = 0
	b.round([]int{0}, -1, nil, nil)
	b.MinSample = saved
}

// minSteps is the least number of measured steps over n specs: two per
// spec, so with the specs summed 2n samples stand behind a value, and three
// on a one-spec workload for its median.
func minSteps(n int) int { return max(3, 2*n) }

// Measure runs untraced steps for at least seconds and minSteps steps. Step
// s is a round over spec s mod n alone, so every metric's samples are spread
// over the whole run in short pieces: the host's speed drifts over seconds,
// and a full round of a 16-spec workload takes about ten of them. An
// operation's value is the sum over specs of the spec's median seconds (its
// fastest, for an Op marked Fastest); peak RSS is the median of the steps'
// peaks. Measure logs each metric's sample
// counts and returns the values.
func (b *Bench) Measure(seconds time.Duration) map[string]float64 {
	b.warmUp()
	n := len(b.W.Specs)
	perSpec := make([]map[string][]float64, n)
	for i := range perSpec {
		perSpec[i] = make(map[string][]float64)
	}
	var rss []float64
	start := time.Now()
	for s := 0; s < minSteps(n) || time.Since(start) < seconds; s++ {
		if err := resetPeakRSS(); err != nil {
			fmt.Fprintf(b.Log, "perfbench: peak RSS is the process's, not the step's: %v\n", err)
		}
		b.round([]int{s % n}, -1, perSpec[s%n], nil)
		mb, err := peakRSSMB()
		if err != nil {
			b.account("peak_rss_mb", err)
			continue
		}
		rss = append(rss, mb)
	}

	values := make(map[string]float64)
	for _, op := range Ops {
		pick, what := median, "medians"
		if op.Fastest {
			pick, what = slices.Min[[]float64], "fastest"
		}
		var sum float64
		counts := make([]int, n)
		for i, m := range perSpec {
			if counts[i] = len(m[op.Metric]); counts[i] > 0 {
				sum += pick(m[op.Metric])
			}
		}
		if slices.Contains(counts, 0) {
			fmt.Fprintf(b.Log, "%-18s not reported: a spec has no sample\n", op.Metric)
			continue
		}
		values[op.Metric] = sum
		fmt.Fprintf(b.Log, "%-18s %.6f: sum of %d per-spec %s of %d-%d samples\n", op.Metric, sum, n, what, slices.Min(counts), slices.Max(counts))
	}
	if len(rss) > 0 {
		values["peak_rss_mb"] = median(rss)
		fmt.Fprintf(b.Log, "%-18s %.6f: median of %d steps\n", "peak_rss_mb", median(rss), len(rss))
	}
	return values
}

// resetPeakRSS restarts the kernel's RSS high-water mark (VmHWM) from the
// current RSS, so each round's peak is read on its own. A process-lifetime
// peak is bimodal here: GC pacing on a contended host sometimes lets the
// heap overshoot by half in one operation of one round, and 2 of 10 gemm
// runs read 22-24 MB against 14.5 MB.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the high-water resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

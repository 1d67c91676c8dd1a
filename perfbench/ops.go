package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/space"
)

// chunkSize is the innermost chunk width beast uses by default.
const chunkSize = 64

// cCompiler builds the generated sweeps.
const cCompiler = "cc"

// ckptSnapshots is about how many checkpoint snapshots one checkpointed run
// of a spec writes. Every Save fsyncs: at one snapshot per tile the stencil
// workload's 512-tile plans made 8k fsyncs per operation, 3.5 s of a 4.7 s
// operation, and the metric measured the shared disk (its spread across
// runs was 0.49 of its median). The cadence is set per plan from its tile
// count, so every workload still snapshots, stops and resumes tile by tile.
const ckptSnapshots = 16

// Op is one end-to-end operation: it covers the workload's specs listed in
// idx, records layer-call spans under span, checks its outputs against the
// oracle, and returns the seconds it measured.
type Op struct {
	Metric string
	Run    func(b *Bench, idx []int, span int) (float64, error)
	// Fastest reports each spec's fastest sample of a run instead of its
	// median. Only the generated C uses it: it neither allocates nor
	// collects garbage, so its time varies only with interference from the
	// host. It also varies the most: runs 30% apart where the compiled
	// sweep moved 15%, and a 0.16 quartile spread over twenty 30 s windows
	// of dense steps for the median sample, against 0.06 for the fastest.
	Fastest bool
}

// Ops lists the timed operations in the order a round runs them.
var Ops = []Op{
	{Metric: "setup_s", Run: opSetup},
	{Metric: "sweep_compiled_s", Run: sweepOp("compiled", false)},
	{Metric: "sweep_vm_s", Run: sweepOp("vm", false)},
	{Metric: "sweep_interp_s", Run: sweepOp("interp", false)},
	{Metric: "sweep_parallel_s", Run: sweepOp("compiled", true)},
	{Metric: "stream_s", Run: opStream},
	{Metric: "tune_s", Run: opTune},
	{Metric: "ckpt_resume_s", Run: opCkptResume},
	{Metric: "gen_c_build_s", Run: opCBuild},
	{Metric: "gen_c_run_s", Run: opCRun, Fastest: true},
}

// batch runs body until at least b.MinSample has elapsed and returns the
// mean seconds per run, so short operations are timed over enough work to
// be steady. Callers check the outputs the last run left behind.
func (b *Bench) batch(body func() error) (float64, error) {
	start := time.Now()
	for k := 1; ; k++ {
		if err := body(); err != nil {
			return 0, err
		}
		if el := time.Since(start); el >= b.MinSample {
			return el.Seconds() / float64(k), nil
		}
	}
}

// opSetup is spec -> space -> plan.Compile (default options) ->
// engine.NewCompiled for every spec in idx. The plans must match the first
// setup's.
func opSetup(b *Bench, idx []int, span int) (float64, error) {
	var progs []*plan.Program
	secs, err := b.batch(func() error {
		var err error
		_, progs, _, err = b.setup(idx, span, plan.Options{}, true)
		return err
	})
	if err != nil {
		return 0, err
	}
	for k, p := range progs {
		if i, d := idx[k], p.Describe(); d != b.descs[i] {
			return 0, fmt.Errorf("setup %s: plan differs from the first setup's:\n%s\nvs\n%s", b.W.Specs[i].Name, d, b.descs[i])
		}
	}
	return secs, nil
}

// setup builds the spaces, plans and (when engines is set) compiled engines
// of the specs in idx, with one span per layer call.
func (b *Bench) setup(idx []int, span int, opts plan.Options, engines bool) ([]*space.Space, []*plan.Program, []*engine.Compiled, error) {
	spaces := make([]*space.Space, len(idx))
	progs := make([]*plan.Program, len(idx))
	var engs []*engine.Compiled
	for k, i := range idx {
		spec := b.W.Specs[i]
		name := "speclang.Parse"
		if spec.GEMM != nil {
			name = "gemm.Space"
		}
		id := b.tr.Begin(span, name)
		s, err := spec.Build()
		b.tr.End(id)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		id = b.tr.BeginMem(span, "plan.Compile")
		p, err := plan.Compile(s, opts)
		b.tr.End(id)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: plan: %w", spec.Name, err)
		}
		spaces[k], progs[k] = s, p
		if !engines {
			continue
		}
		id = b.tr.Begin(span, "engine.NewCompiled")
		e, err := engine.NewCompiled(p)
		b.tr.End(id)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: engine: %w", spec.Name, err)
		}
		engs = append(engs, e)
	}
	return spaces, progs, engs, nil
}

// backend returns the named engine over spec i's default plan.
func (b *Bench) backend(name string, i int) engine.Engine {
	switch name {
	case "vm":
		return engine.NewVM(b.progs[i])
	case "interp":
		return engine.NewInterp(b.progs[i])
	}
	return b.engs[i]
}

// run is one Engine.Run with its span and counters.
func (b *Bench) run(span int, e engine.Engine, opts engine.Options) (*engine.Stats, error) {
	id := b.tr.BeginMem(span, "Engine.Run")
	st, err := e.Run(opts)
	b.tr.End(id)
	if st != nil && b.tr != nil {
		b.tr.Count(id, "visits", float64(st.TotalVisits()))
		b.tr.Count(id, "survivors", float64(st.Survivors))
		b.tr.Count(id, "tiles", float64(st.Tiles))
		b.tr.Count(id, "split_depth", float64(st.SplitDepth))
	}
	return st, err
}

// sweepOp is a count-only enumeration of every spec in idx on one backend,
// sequential or with b.Workers workers.
func sweepOp(backend string, parallel bool) func(*Bench, []int, int) (float64, error) {
	return func(b *Bench, idx []int, span int) (float64, error) {
		opts := engine.Options{Workers: 1, ChunkSize: chunkSize}
		sig := fullSig
		if parallel {
			opts.Workers, sig = b.Workers, pruneSig
		}
		stats := make([]*engine.Stats, len(idx))
		secs, err := b.batch(func() error {
			for k, i := range idx {
				st, err := b.run(span, b.backend(backend, i), opts)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", backend, b.W.Specs[i].Name, err)
				}
				stats[k] = st
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		for k, st := range stats {
			i := idx[k]
			what := fmt.Sprintf("%s workers=%d on %s", backend, opts.Workers, b.W.Specs[i].Name)
			if err := checkRef(what, st, b.refs[i]); err != nil {
				return 0, err
			}
			if err := sameStats(what, st, b.seq[i], sig); err != nil {
				return 0, err
			}
		}
		return secs, nil
	}
}

// opStream delivers every survivor to a lock-guarded digest at b.Workers.
func opStream(b *Bench, idx []int, span int) (float64, error) {
	return b.stream(idx, span, b.Workers)
}

func (b *Bench) stream(idx []int, span, workers int) (float64, error) {
	digests := make([]*lockedDigest, len(idx))
	secs, err := b.batch(func() error {
		for k, i := range idx {
			digests[k] = &lockedDigest{}
			opts := engine.Options{Workers: workers, ChunkSize: chunkSize, OnTuple: digests[k].OnTuple}
			if _, err := b.run(span, b.engs[i], opts); err != nil {
				return fmt.Errorf("stream on %s: %w", b.W.Specs[i].Name, err)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for k, d := range digests {
		i := idx[k]
		if err := checkDigest("stream on "+b.W.Specs[i].Name, d.d, b.refs[i]); err != nil {
			return 0, err
		}
	}
	return secs, nil
}

// opTune runs the exhaustive tuner (TopK 10, b.Workers) over the default
// plan of every spec in idx with the fixed Objective.
func opTune(b *Bench, idx []int, span int) (float64, error) {
	reps := make([]*autotune.Report, len(idx))
	secs, err := b.batch(func() error {
		for k, i := range idx {
			t := &autotune.Tuner{Prog: b.progs[i], Objective: Objective}
			id := b.tr.Begin(span, "Tuner.Run")
			rep, err := t.Run(autotune.Options{Strategy: autotune.Exhaustive, TopK: 10, Workers: b.Workers, ChunkSize: chunkSize})
			b.tr.End(id)
			if err != nil {
				return fmt.Errorf("tune %s: %w", b.W.Specs[i].Name, err)
			}
			b.tr.Count(id, "evals", float64(rep.Evaluated))
			reps[k] = rep
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for k, rep := range reps {
		i := idx[k]
		ref := b.refs[i]
		switch {
		case rep.Evaluated != ref.Survivors:
			return 0, fmt.Errorf("tune %s: %d evaluations, oracle has %d survivors", b.W.Specs[i].Name, rep.Evaluated, ref.Survivors)
		case len(rep.Best) != int(min(10, ref.Survivors)):
			return 0, fmt.Errorf("tune %s: %d results kept, want %d", b.W.Specs[i].Name, len(rep.Best), min(10, ref.Survivors))
		case len(rep.Best) > 0 && rep.Best[0].Score != ref.BestScore:
			return 0, fmt.Errorf("tune %s: best score %v, oracle has %v", b.W.Specs[i].Name, rep.Best[0].Score, ref.BestScore)
		}
	}
	return secs, nil
}

// opCkptResume runs each spec in idx count-only with about ckptSnapshots
// checkpoints written, stops it after half the survivors (Options.Limit, as
// beast -tuples does), then resumes from the file and runs to completion.
// The resumed Stats must equal a clean run's. Delivery is left to stream_s
// and tune_s: with every survivor buffered per tile, this operation measured
// tuple copies (200 MB per operation on gemm) more than checkpointing.
func opCkptResume(b *Bench, idx []int, span int) (float64, error) {
	finals := make([]*engine.Stats, len(idx))
	secs, err := b.batch(func() error {
		for k, i := range idx {
			st, err := b.ckptResume(i, span)
			if err != nil {
				return fmt.Errorf("checkpoint/resume %s: %w", b.W.Specs[i].Name, err)
			}
			finals[k] = st
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for k, st := range finals {
		i := idx[k]
		what := "checkpoint/resume " + b.W.Specs[i].Name
		if err := checkRef(what, st, b.refs[i]); err != nil {
			return 0, err
		}
		if err := sameStats(what, st, b.seq[i], pruneSig); err != nil {
			return 0, err
		}
	}
	return secs, nil
}

func (b *Bench) ckptResume(i, span int) (*engine.Stats, error) {
	path := filepath.Join(b.Dir, fmt.Sprintf("ckpt-%d.json", i))
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	eng := b.engs[i]
	opts := engine.Options{Workers: 1, ChunkSize: chunkSize}
	fp := checkpoint.Fingerprint(b.progs[i], eng.Name(), opts)

	stopped := opts
	stopped.Limit = max(1, b.refs[i].Survivors/2)
	id := b.tr.BeginMem(span, "Engine.Run")
	stopped.Checkpoint = b.saver(path, fp, b.ckptEvery[i], id)
	_, err := eng.Run(stopped)
	b.tr.End(id)
	if err != nil {
		return nil, err
	}

	id = b.tr.Begin(span, "checkpoint.Resume")
	res, _, err := checkpoint.Resume(path, fp)
	b.tr.End(id)
	if err != nil {
		return nil, err
	}
	b.tr.Count(id, "tiles", float64(res.CompletedTiles()))
	opts.Resume = res
	id = b.tr.BeginMem(span, "Engine.Run")
	opts.Checkpoint = b.saver(path, fp, b.ckptEvery[i], id)
	st, err := eng.Run(opts)
	b.tr.End(id)
	return st, err
}

// saver is checkpoint.NewWriter snapshotting every `every` tiles, wrapped so
// the traced run records each Save as a span with the file's size.
func (b *Bench) saver(path, fp string, every, parent int) *engine.CheckpointConfig {
	cfg := checkpoint.NewWriter(path, fp, every, nil)
	if b.tr == nil {
		return cfg
	}
	save := cfg.OnSnapshot
	cfg.OnSnapshot = func(s *engine.Snapshot) error {
		id := b.tr.Begin(parent, "checkpoint.Save")
		err := save(s)
		b.tr.End(id)
		if fi, serr := os.Stat(path); serr == nil {
			b.tr.Count(id, "bytes", float64(fi.Size()))
		}
		return err
	}
	return cfg
}

// opCBuild emits C for every spec in idx and builds it with cc -O2 into a
// driver that times beast_enumerate in process.
func opCBuild(b *Bench, idx []int, span int) (float64, error) {
	return b.batch(func() error {
		for _, i := range idx {
			if err := b.buildC(i, span); err != nil {
				return fmt.Errorf("generated C for %s: %w", b.W.Specs[i].Name, err)
			}
		}
		return nil
	})
}

func (b *Bench) buildC(i, span int) error {
	id := b.tr.Begin(span, "codegen.C")
	src, err := codegen.C(b.progs[i], codegen.COptions{ChunkSize: chunkSize})
	b.tr.End(id)
	if err != nil {
		return err
	}
	b.tr.Count(id, "bytes", float64(len(src)))
	gen := fmt.Sprintf("gen_%d.c", i)
	drv := fmt.Sprintf("drv_%d.c", i)
	if err := os.WriteFile(filepath.Join(b.Dir, gen), []byte(src), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.Dir, drv), []byte(cDriver(gen, len(b.progs[i].Constraints))), 0o644); err != nil {
		return err
	}
	id = b.tr.Begin(span, "cc")
	cmd := exec.Command(cCompiler, "-O2", "-o", fmt.Sprintf("sweep_%d", i), drv)
	cmd.Dir = b.Dir
	out, err := cmd.CombinedOutput()
	b.tr.End(id)
	if err != nil {
		return fmt.Errorf("%s: %w\n%s", cCompiler, err, out)
	}
	return nil
}

// cDriver is the main() that includes one generated sweep, calls
// beast_enumerate once to warm up and then until at least minMS ms and five
// calls have run, printing each call's time and the last call's counters.
func cDriver(gen string, nConstraints int) string {
	return `#define _POSIX_C_SOURCE 199309L
#include "` + gen + `"
#include <time.h>

static long long perfbench_now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

int main(int argc, char **argv) {
    long long min_ns = (argc > 1 ? atoll(argv[1]) : 100) * 1000000LL;
    beast_stats st;
    long long spent = 0;
    for (int r = -1; r < 5 || spent < min_ns; r++) {
        memset(&st, 0, sizeof st);
        long long t0 = perfbench_now();
        beast_enumerate(&st, NULL, NULL);
        long long dt = perfbench_now() - t0;
        if (r >= 0) {
            printf("ns %lld\n", dt);
            spent += dt;
        }
    }
    long long visits = 0;
    for (size_t i = 0; i < sizeof st.visits / sizeof st.visits[0]; i++) visits += st.visits[i];
    printf("survivors %lld\nvisits %lld\n", (long long)st.survivors, visits);
    for (int i = 0; i < ` + strconv.Itoa(nConstraints) + `; i++)
        printf("ck %lld %lld\n", (long long)st.checks[i], (long long)st.kills[i]);
    return 0;
}
`
}

// opCRun runs the built sweep of every spec in idx and sums the per-spec
// mean call times the drivers measured in process, so process launch is not
// counted.
func opCRun(b *Bench, idx []int, span int) (float64, error) {
	var total float64
	for _, i := range idx {
		id := b.tr.Begin(span, "c.run")
		secs, err := b.runC(i)
		b.tr.End(id)
		if err != nil {
			return 0, fmt.Errorf("generated C for %s: %w", b.W.Specs[i].Name, err)
		}
		b.tr.Count(id, "c_seconds", secs)
		total += secs
	}
	return total, nil
}

func (b *Bench) runC(i int) (float64, error) {
	cmd := exec.Command(filepath.Join(b.Dir, fmt.Sprintf("sweep_%d", i)), strconv.Itoa(max(1, b.CRunMS)))
	cmd.Dir = b.Dir
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var (
		times            []float64
		survivors, visit int64
		checks, kills    []int64
	)
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		v := make([]int64, len(f)-1)
		for j := range v {
			if v[j], err = strconv.ParseInt(f[j+1], 10, 64); err != nil {
				return 0, fmt.Errorf("bad driver line %q", sc.Text())
			}
		}
		switch f[0] {
		case "ns":
			times = append(times, float64(v[0])/1e9)
		case "survivors":
			survivors = v[0]
		case "visits":
			visit = v[0]
		case "ck":
			checks, kills = append(checks, v[0]), append(kills, v[1])
		}
	}
	ref := b.refs[i]
	switch {
	case len(times) == 0:
		return 0, fmt.Errorf("driver printed no timings")
	case survivors != ref.Survivors || !slices.Equal(kills, ref.Kills):
		return 0, fmt.Errorf("C counts survivors=%d kills=%v, oracle has %d %v", survivors, kills, ref.Survivors, ref.Kills)
	case visit != b.seq[i].TotalVisits() || !slices.Equal(checks, b.seq[i].Checks):
		return 0, fmt.Errorf("C visits %d checks %v, compiled engine has %d %v", visit, checks, b.seq[i].TotalVisits(), b.seq[i].Checks)
	}
	// The mean call, not the median: call times here are bimodal (the host
	// switches between a fast and a 1.4x slower state about every second),
	// and a median jumps between the modes where a mean moves smoothly.
	var sum float64
	for _, t := range times {
		sum += t
	}
	return sum / float64(len(times)), nil
}

// median returns the middle value, the mean of the two middle values for
// even lengths, and 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

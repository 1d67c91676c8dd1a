package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
)

func stencilSource(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../examples/specfile/space.bst")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func TestWorkloadsDeterministicPerSeed(t *testing.T) {
	src := stencilSource(t)
	for _, name := range Workloads {
		for _, seed := range []int64{0, 1, 7} {
			a, err := NewWorkload(name, seed, src)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewWorkload(name, seed, src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: two generations differ", name, seed)
			}
		}
		a, _ := NewWorkload(name, 1, src)
		b, _ := NewWorkload(name, 2, src)
		if reflect.DeepEqual(a.Specs, b.Specs) {
			t.Errorf("%s: seeds 1 and 2 give the same inputs", name)
		}
	}
}

func TestDefaultSeedIsTheReferenceConfiguration(t *testing.T) {
	src := stencilSource(t)
	g, _ := NewWorkload("gemm", 0, src)
	for _, s := range g.Specs {
		if !strings.HasSuffix(s.Name, "@Tesla K40c") {
			t.Errorf("gemm seed 0: %s is not on the K40c", s.Name)
		}
	}
	st, _ := NewWorkload("stencil", 0, src)
	for _, s := range st.Specs {
		if !strings.Contains(s.Text, "setting min_occupancy_threads = 256") {
			t.Errorf("stencil seed 0: %s does not keep min_occupancy_threads 256", s.Name)
		}
	}
	d, _ := NewWorkload("dense", 0, src)
	for _, c := range []string{"a % 5 == 0", "bb % 7 == 0", "cc % 11 == 0", "cc % 13 == 0", "(a + cc) % 17 == 0", "(bb * cc) % 19 == 3"} {
		if !strings.Contains(d.Specs[0].Text, c) {
			t.Errorf("dense seed 0 lacks %q", c)
		}
	}
	for _, w := range []*Workload{g, st, d} {
		for _, s := range w.Specs {
			if _, err := s.Build(); err != nil {
				t.Errorf("%s: %v", s.Name, err)
			}
		}
	}
}

// tinySpec is small enough to run every operation in a test, and prunes on
// every level so kills, narrowing and tabulation all show.
const tinySpec = `setting lim = 40
x = range(1, 24)
y = range(1, 24)
z = range(1, 200)
constraint hard big: x * y > lim
constraint soft odd: z % 3 == 0
constraint soft mix: (x + z) % 5 == 1
`

func tinyBench(t *testing.T) *Bench {
	t.Helper()
	b := &Bench{
		W:       &Workload{Name: "tiny", Specs: []Spec{{Name: "tiny", Text: tinySpec}}},
		Workers: 4,
		Dir:     t.TempDir(),
		CRunMS:  1,
		Log:     io.Discard,
	}
	if err := b.Prepare(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDigestEqualAtOneAndManyWorkers(t *testing.T) {
	b := tinyBench(t)
	for _, workers := range []int{1, 4} {
		var d lockedDigest
		if _, err := b.engs[0].Run(engine.Options{Workers: workers, ChunkSize: chunkSize, OnTuple: d.OnTuple}); err != nil {
			t.Fatal(err)
		}
		if d.d != b.refs[0].Digest {
			t.Errorf("workers=%d: digest %+v, oracle %+v", workers, d.d, b.refs[0].Digest)
		}
	}
	if b.refs[0].Digest.N == 0 {
		t.Fatal("tiny spec has no survivors")
	}
}

func TestCleanRoundHasNoFailures(t *testing.T) {
	if _, err := exec.LookPath("cc"); err != nil {
		t.Skip("no C compiler")
	}
	b := tinyBench(t)
	samples := make(map[string][]float64)
	b.round([]int{0}, -1, samples, nil)
	if b.Failed != 0 || b.Attempted != len(Ops) {
		t.Fatalf("attempted %d failed %d, want %d and 0", b.Attempted, b.Failed, len(Ops))
	}
	for _, op := range Ops {
		if len(samples[op.Metric]) != 1 || samples[op.Metric][0] <= 0 {
			t.Errorf("%s: samples %v", op.Metric, samples[op.Metric])
		}
	}
}

func TestInjectedOracleMismatchIsAFailure(t *testing.T) {
	if _, err := exec.LookPath("cc"); err != nil {
		t.Skip("no C compiler")
	}
	for _, tc := range []struct {
		name   string
		inject func(*Ref)
		fail   []string // operations that must fail
	}{
		{"survivors", func(r *Ref) { r.Survivors++ }, []string{"sweep_compiled_s", "sweep_vm_s", "sweep_interp_s", "sweep_parallel_s", "tune_s", "ckpt_resume_s", "gen_c_run_s"}},
		{"kills", func(r *Ref) { r.Kills[0]++ }, []string{"sweep_compiled_s", "sweep_vm_s", "sweep_interp_s", "sweep_parallel_s", "ckpt_resume_s", "gen_c_run_s"}},
		{"digest", func(r *Ref) { r.Digest.Sum++ }, []string{"stream_s"}},
		{"best score", func(r *Ref) { r.BestScore /= 2 }, []string{"tune_s"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tinyBench(t)
			var log strings.Builder
			b.Log = &log
			tc.inject(b.refs[0])
			b.round([]int{0}, -1, make(map[string][]float64), nil)
			if b.Failed != len(tc.fail) {
				t.Errorf("failed %d of %d, want %d:\n%s", b.Failed, b.Attempted, len(tc.fail), log.String())
			}
			for _, op := range tc.fail {
				if !strings.Contains(log.String(), "FAIL "+op+":") {
					t.Errorf("%s did not fail", op)
				}
			}
		})
	}
}

func TestSelfTimeIsSpanMinusChildCover(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Start: 20 * ms, End: 50 * ms},  // overlaps 1: covered once
		{ID: 3, Parent: 0, Start: 90 * ms, End: 120 * ms}, // clipped to the parent
		{ID: 4, Parent: 2, Start: 25 * ms, End: 35 * ms},
	}
	got := SelfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 30 * ms, 10 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTracerSpansNestAndCount(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(-1, "workload")
	op := tr.BeginOp(root, "op")
	call := tr.Begin(op, "plan.Compile")
	tr.Count(call, "n", 2)
	tr.Count(call, "n", 3)
	tr.End(call)
	tr.End(op)
	tr.End(root)
	spans := tr.Spans()
	if spans[call].Op != op || spans[op].Op != op || spans[root].Op != -1 {
		t.Errorf("operation IDs: %+v", spans)
	}
	if _, c := Sum(spans, op, "plan.Compile"); c["n"] != 5 {
		t.Errorf("count %v, want 5", c["n"])
	}
	if _, ok := spans[op].Counts["mallocs"]; !ok {
		t.Error("operation span has no allocation counts")
	}
	var nilTracer *Tracer
	if id := nilTracer.Begin(-1, "x"); id != -1 {
		t.Error("nil tracer recorded a span")
	}
	nilTracer.End(-1)
}

func TestBenchmarkJSONNamesTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("workloads %v, driver has %v", names, Workloads)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []Metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, driver reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: %s/%s, driver reports %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, EndToEnd())
	check("per_layer", doc.PerLayer, PerLayer())
}

// The oracle must agree with an independent backend on the same nest order.
// (Kills depend on the order: on this spec the declared order's differ.)
func TestReferenceMatchesInterpInTheChosenOrder(t *testing.T) {
	b := tinyBench(t)
	var order []string
	for _, l := range b.progs[0].Loops {
		order = append(order, l.Iter.Name)
	}
	p, err := plan.Compile(b.spaces[0], plan.Options{Order: order})
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewInterp(p).Run(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRef("interp", st, b.refs[0]); err != nil {
		t.Error(err)
	}
}

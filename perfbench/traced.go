package main

import (
	"strings"
	"time"

	"repro/internal/plan"
)

// Metric is a metric name and unit as BENCHMARK.json declares it.
type Metric struct{ Name, Unit string }

// EndToEnd lists the end-to-end metrics: every operation's seconds, then the
// peak RSS of a round.
func EndToEnd() []Metric {
	var ms []Metric
	for _, op := range Ops {
		ms = append(ms, Metric{op.Metric, "s"})
	}
	return append(ms, Metric{"peak_rss_mb", "MB"})
}

// spanNames are the layer calls the traced run records spans around.
var spanNames = []string{
	"speclang.Parse", "gemm.Space", "plan.Compile", "engine.NewCompiled", "Engine.Run",
	"checkpoint.Save", "checkpoint.Resume", "Tuner.Run", "codegen.C", "cc", "c.run",
}

// PerLayer lists the traced run's metrics. Every workload reports all of
// them; a metric whose layer the workload does not run reads 0.
func PerLayer() []Metric {
	ms := []Metric{
		{"speclang.parse_s", "s"}, {"space.build_s", "s"},
		{"plan.compile_s", "s"}, {"plan.compile_allocs", "count"}, {"plan.compile_noreorder_s", "s"},
		{"plan.reorder_applied", "count"}, {"plan.specs", "count"}, {"plan.estimate_ratio", "ratio"},
		{"plan.table_bytes", "bytes"},
		{"engine.visits", "count"}, {"engine.checks", "count"}, {"engine.survivors", "count"},
		{"engine.yield", "ratio"}, {"engine.skipped", "count"}, {"engine.narrow_ratio", "ratio"},
		{"engine.tab_checks", "count"}, {"engine.tab_share", "ratio"}, {"engine.chunks", "count"},
		{"engine.lanes_masked", "count"}, {"engine.temp_hit_ratio", "ratio"},
	}
	for _, be := range []string{"compiled", "vm", "interp"} {
		ms = append(ms, Metric{"engine." + be + ".visits_per_s", "1/s"}, Metric{"engine." + be + ".allocs", "count"})
	}
	ms = append(ms,
		Metric{"engine.tiles", "count"}, Metric{"engine.split_depth", "count"},
		Metric{"engine.parallel_efficiency", "ratio"}, Metric{"engine.deliver_ns", "ns"},
		Metric{"engine.deliver_serial_s", "s"},
		Metric{"checkpoint.saves", "count"}, Metric{"checkpoint.bytes", "bytes"},
		Metric{"checkpoint.save_s", "s"}, Metric{"checkpoint.resume_s", "s"},
		Metric{"checkpoint.resumed_tiles", "count"},
		Metric{"autotune.evals", "count"}, Metric{"autotune.overhead_s", "s"},
		Metric{"codegen.c_bytes", "bytes"}, Metric{"codegen.c_visits_per_s", "1/s"},
	)
	for _, op := range Ops {
		name := strings.TrimSuffix(op.Metric, "_s")
		ms = append(ms, Metric{"runtime." + name + ".gc_cycles", "count"}, Metric{"runtime." + name + ".alloc_mb", "MB"})
	}
	for _, s := range spanNames {
		ms = append(ms, Metric{"self." + s + "_s", "s"})
	}
	ms = append(ms, Metric{"self.harness_s", "s"})
	for _, op := range Ops {
		ms = append(ms, Metric{"trace.overhead." + op.Metric, "s"})
	}
	return ms
}

// Trace is the traced invocation: after the warm-up it alternates untraced
// and traced rounds over every spec, one pair at least and no further pair
// once the next would end past seconds, then runs the traced-only
// operations, and derives the per-layer metrics from the last traced round.
// Tracing overhead is the traced minus the untraced median of each
// end-to-end metric.
func (b *Bench) Trace(seconds time.Duration) (map[string]float64, []Span) {
	b.warmUp()
	tracer := NewTracer()
	root := tracer.Begin(-1, "workload "+b.W.Name)
	all := b.all()
	plain := make(map[string][]float64)
	traced := make(map[string][]float64)
	ops := make(map[string]int)
	start := time.Now()
	var pair time.Duration
	for r := 0; r < 1 || time.Since(start)+pair < seconds; r++ {
		t0 := time.Now()
		b.tr = nil
		b.round(all, -1, plain, nil)
		b.tr = tracer
		b.round(all, root, traced, ops)
		pair = time.Since(t0)
	}

	noreorder := tracer.BeginOp(root, "plan.compile_noreorder")
	_, _, _, err := b.setup(all, noreorder, plan.Options{DisableReorder: true}, false)
	tracer.End(noreorder)
	b.account("plan.compile_noreorder", err)
	serial := tracer.BeginOp(root, "stream_serial")
	_, err = b.stream(all, serial, 1)
	tracer.End(serial)
	b.account("stream_serial", err)
	b.tr = nil
	tracer.End(root)

	spans := tracer.Spans()
	m := b.layerMetrics(spans, ops, plain, traced)
	d, _ := Sum(spans, noreorder, "plan.Compile")
	m["plan.compile_noreorder_s"] = d.Seconds()
	d, _ = Sum(spans, serial, "Engine.Run")
	m["engine.deliver_serial_s"] = d.Seconds()
	return m, spans
}

// layerMetrics derives the per-layer metrics from the spans of the last
// traced round (ops maps each end-to-end metric to its operation span),
// the counters of the first compiled sweep, and the untraced medians.
func (b *Bench) layerMetrics(spans []Span, ops map[string]int, plain, traced map[string][]float64) map[string]float64 {
	m := make(map[string]float64)
	opSpan := func(metric string) int {
		if id, ok := ops[metric]; ok {
			return id
		}
		return -2 // matches no span
	}
	sum := func(metric, name string) (float64, map[string]float64) {
		d, c := Sum(spans, opSpan(metric), name)
		return d.Seconds(), c
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m["speclang.parse_s"], _ = sum("setup_s", "speclang.Parse")
	m["space.build_s"], _ = sum("setup_s", "gemm.Space")
	var c map[string]float64
	m["plan.compile_s"], c = sum("setup_s", "plan.Compile")
	m["plan.compile_allocs"] = c["mallocs"]

	var visits, checks, survivors, skipped, tab, chunks, lanes, tEvals, tHits float64
	var estimated, estimatedReal, tableBytes, applied float64
	for i, st := range b.seq {
		v := float64(st.TotalVisits())
		visits += v
		for _, x := range st.Checks {
			checks += float64(x)
		}
		survivors += float64(st.Survivors)
		skipped += float64(st.TotalIterationsSkipped())
		tab += float64(st.TabulatedChecks)
		chunks += float64(st.ChunksEvaluated)
		lanes += float64(st.LanesMasked)
		tEvals += float64(st.TotalTempEvals())
		tHits += float64(st.TotalTempHits())
		p := b.progs[i]
		if ri := p.Reorder; ri != nil {
			estimated += ri.EstimatedVisits
			estimatedReal += v
			if ri.Applied {
				applied++
			}
		}
		if p.Tab != nil {
			tableBytes += float64(p.Tab.TableBytes)
		}
	}
	m["plan.reorder_applied"] = applied
	m["plan.specs"] = float64(len(b.progs))
	m["plan.estimate_ratio"] = ratio(estimated, estimatedReal)
	m["plan.table_bytes"] = tableBytes
	m["engine.visits"] = visits
	m["engine.checks"] = checks
	m["engine.survivors"] = survivors
	m["engine.yield"] = ratio(survivors, visits)
	m["engine.skipped"] = skipped
	m["engine.narrow_ratio"] = ratio(skipped, skipped+visits)
	m["engine.tab_checks"] = tab
	m["engine.tab_share"] = ratio(tab, checks)
	m["engine.chunks"] = chunks
	m["engine.lanes_masked"] = lanes
	m["engine.temp_hit_ratio"] = ratio(tHits, tHits+tEvals)

	for _, be := range []string{"compiled", "vm", "interp"} {
		secs, c := sum("sweep_"+be+"_s", "Engine.Run")
		m["engine."+be+".visits_per_s"] = ratio(c["visits"], secs)
		m["engine."+be+".allocs"] = c["mallocs"]
	}
	_, c = sum("sweep_parallel_s", "Engine.Run")
	m["engine.tiles"] = c["tiles"]
	m["engine.split_depth"] = ratio(c["split_depth"], float64(len(b.progs)))

	med := func(metric string) float64 { return median(plain[metric]) }
	m["engine.parallel_efficiency"] = ratio(med("sweep_compiled_s"), float64(b.Workers)*med("sweep_parallel_s"))
	m["engine.deliver_ns"] = ratio((med("stream_s")-med("sweep_parallel_s"))*1e9, survivors)

	saveSecs, c := sum("ckpt_resume_s", "checkpoint.Save")
	m["checkpoint.save_s"] = saveSecs
	m["checkpoint.bytes"] = c["bytes"]
	for _, s := range spans {
		if s.Op == opSpan("ckpt_resume_s") && s.Name == "checkpoint.Save" {
			m["checkpoint.saves"]++
		}
	}
	m["checkpoint.resume_s"], c = sum("ckpt_resume_s", "checkpoint.Resume")
	m["checkpoint.resumed_tiles"] = c["tiles"]

	_, c = sum("tune_s", "Tuner.Run")
	m["autotune.evals"] = c["evals"]
	m["autotune.overhead_s"] = med("tune_s") - med("stream_s")

	_, c = sum("gen_c_build_s", "codegen.C")
	m["codegen.c_bytes"] = c["bytes"]
	m["codegen.c_visits_per_s"] = ratio(visits, med("gen_c_run_s"))

	for _, op := range Ops {
		name := "runtime." + strings.TrimSuffix(op.Metric, "_s")
		if id := opSpan(op.Metric); id >= 0 {
			m[name+".gc_cycles"] = spans[id].Counts["gc_cycles"]
			m[name+".alloc_mb"] = spans[id].Counts["alloc_bytes"] / (1 << 20)
		}
	}

	last := make(map[int]bool)
	for _, id := range ops {
		last[id] = true
	}
	self := SelfTimes(spans)
	for i, s := range spans {
		if !last[s.Op] {
			continue
		}
		key := "self." + s.Name + "_s"
		if s.ID == s.Op {
			key = "self.harness_s"
		}
		m[key] += self[i].Seconds()
	}
	for _, op := range Ops {
		m["trace.overhead."+op.Metric] = median(traced[op.Metric]) - median(plain[op.Metric])
	}
	return m
}

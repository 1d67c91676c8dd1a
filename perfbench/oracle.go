package main

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/space"
)

// Digest is an order-independent fingerprint of a tuple multiset: the count
// and the wrapping sum of a 64-bit hash of each tuple. Equal survivor sets
// give equal digests whatever order workers deliver them in.
type Digest struct {
	N   int64
	Sum uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func tupleHash(t []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range t {
		h = mix64(h ^ uint64(v))
	}
	return h
}

// Add folds one tuple into d.
func (d *Digest) Add(t []int64) {
	d.N++
	d.Sum += tupleHash(t)
}

// lockedDigest is the consumer the concurrent-callback contract requires
// when Workers > 1: OnTuple may run on several workers at once.
type lockedDigest struct {
	mu sync.Mutex
	d  Digest
}

func (l *lockedDigest) OnTuple(t []int64) bool {
	l.mu.Lock()
	l.d.Add(t)
	l.mu.Unlock()
	return true
}

// Objective is the tuner's fixed, cheap score: a hash of the tuple mapped to
// [0, 1). It is pure, so concurrent calls are safe, and its maximum over a
// survivor set is a single well-defined value to check against.
func Objective(t []int64) float64 {
	return float64(tupleHash(t)>>11) / (1 << 53)
}

// Ref is the oracle's answer for one space: the survivor count, per-constraint
// kills, the survivor digest and the best objective score. Checks are not
// part of it: a check absorbed into narrowed bounds is no longer evaluated
// on the iterations it passes.
type Ref struct {
	Survivors int64
	Kills     []int64
	Digest    Digest
	BestScore float64
}

// Reference computes the oracle for s: a plan with narrowing, tabulation, CSE
// and reorder disabled, enumerated sequentially and unchunked by the compiled
// backend. The loop order is pinned to the order the default plan chose
// (pinning implies DisableReorder), because kill counts may depend on the
// nest order; narrowing, tabulation and CSE must leave them unchanged. Two
// Disable* flags stay off. Hoisting: without it the GEMM nest is the full
// 15-deep product, minutes per variant, and kills are counted per hoisted
// level, so they would not be comparable. Folding: the compiled backend
// cannot read GEMM's string settings unfolded.
func Reference(s *space.Space, def *plan.Program) (*Ref, error) {
	order := make([]string, len(def.Loops))
	for i, l := range def.Loops {
		order[i] = l.Iter.Name
	}
	prog, err := plan.Compile(s, plan.Options{
		Order:             order,
		DisableCSE:        true,
		DisableNarrowing:  true,
		DisableReorder:    true,
		DisableTabulation: true,
	})
	if err != nil {
		return nil, fmt.Errorf("oracle plan: %w", err)
	}
	eng, err := engine.NewCompiled(prog)
	if err != nil {
		return nil, fmt.Errorf("oracle engine: %w", err)
	}
	ref := &Ref{BestScore: math.Inf(-1)}
	st, err := eng.Run(engine.Options{Workers: 1, ChunkSize: 1, OnTuple: func(t []int64) bool {
		ref.Digest.Add(t)
		ref.BestScore = max(ref.BestScore, Objective(t))
		return true
	}})
	if err != nil {
		return nil, fmt.Errorf("oracle run: %w", err)
	}
	ref.Survivors = st.Survivors
	ref.Kills = st.Kills
	return ref, nil
}

// checkRef compares a run's pruning results with the oracle.
func checkRef(what string, st *engine.Stats, ref *Ref) error {
	switch {
	case st.Survivors != ref.Survivors:
		return fmt.Errorf("%s: %d survivors, oracle has %d", what, st.Survivors, ref.Survivors)
	case !slices.Equal(st.Kills, ref.Kills):
		return fmt.Errorf("%s: kills %v, oracle has %v", what, st.Kills, ref.Kills)
	}
	return nil
}

// checkDigest compares a delivered survivor digest with the oracle's.
func checkDigest(what string, d Digest, ref *Ref) error {
	if d != ref.Digest {
		return fmt.Errorf("%s: delivered digest %+v, oracle has %+v", what, d, ref.Digest)
	}
	return nil
}

// pruneSig is the part of Stats every schedule must reproduce exactly:
// visits, checks, kills, temp activity, narrowing and survivors.
func pruneSig(st *engine.Stats) [][]int64 {
	return [][]int64{st.LoopVisits, st.Checks, st.Kills, st.TempEvals, st.TempHits,
		st.BoundsNarrowed, st.IterationsSkipped, {st.Survivors}}
}

// fullSig adds the chunk and table counters, which are identical across the
// three backends at one chunk size in a sequential run.
func fullSig(st *engine.Stats) [][]int64 {
	return append(pruneSig(st), []int64{st.ChunksEvaluated, st.LanesMasked, st.TabulatedChecks, st.RowCacheHits})
}

// sameStats compares two runs' counters under sig.
func sameStats(what string, got, want *engine.Stats, sig func(*engine.Stats) [][]int64) error {
	g, w := sig(got), sig(want)
	for i := range g {
		if !slices.Equal(g[i], w[i]) {
			return fmt.Errorf("%s: counters %v differ from the compiled sequential run's %v", what, g, w)
		}
	}
	return nil
}

package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/device"
	"repro/internal/gemm"
	"repro/internal/gensweep"
	"repro/internal/space"
	"repro/internal/speclang"
)

// Workload is one benchmark input: a list of search-space specs that every
// operation covers in turn.
type Workload struct {
	Name  string
	Seed  int64
	Specs []Spec
}

// Spec is one search space, held the way a user hands it to the system:
// speclang text, or a GEMM configuration for the built-in space builder.
type Spec struct {
	Name string
	Text string       // speclang source; empty for GEMM specs
	GEMM *gemm.Config // non-nil for GEMM specs
}

// Workloads lists the workload names in BENCHMARK.json order.
var Workloads = []string{"gemm", "stencil", "dense"}

// NewWorkload generates the named workload from seed. stencilSrc is the
// text of the committed stencil spec the stencil variants are derived from.
//
// Seeds vary the inputs without varying the amount of work much, so the
// spread of a metric across seeds measures the program, not the draw. Seed 0
// is the default: the configuration the paper (or the committed spec) uses.
func NewWorkload(name string, seed int64, stencilSrc string) (*Workload, error) {
	w := &Workload{Name: name, Seed: seed}
	var err error
	switch name {
	case "gemm":
		w.Specs = gemmSpecs(seed)
	case "stencil":
		w.Specs, err = stencilSpecs(seed, stencilSrc)
	case "dense":
		w.Specs = []Spec{denseSpec(seed)}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(Workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Build turns the spec into a space: speclang.Parse for text specs,
// gemm.Space for GEMM configurations.
func (s Spec) Build() (*space.Space, error) {
	if s.GEMM != nil {
		return gemm.Space(*s.GEMM)
	}
	return speclang.Parse(s.Text)
}

var gemmDevices = []func() *device.Properties{
	device.TeslaK40c, device.GTX680, device.FermiC2050, device.MaxwellGTX980,
}

// gemmSpecs returns the 16 precision x transpose GEMM variants at the
// committed gensweep scale and occupancy floor. Seed 0 puts every variant on
// the Tesla K40c, the paper's device. Other seeds draw a Latin square over
// the four devices of internal/device: each device runs exactly one variant
// of each precision and one of each transpose case, so the total work stays
// close to the seed-0 total whichever square is drawn.
func gemmSpecs(seed int64) []Spec {
	kernels := []string{"sgemm", "dgemm", "cgemm", "zgemm"}
	trans := []string{"nn", "nt", "tn", "tt"}
	rows, cols, syms := []int{0, 0, 0, 0}, []int{0, 0, 0, 0}, []int{0, 0, 0, 0}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		rows, cols, syms = rng.Perm(4), rng.Perm(4), rng.Perm(4)
	}
	var specs []Spec
	for i, k := range kernels {
		for j, t := range trans {
			cfg, err := gemm.ByName(k + "_" + t)
			if err != nil {
				panic(err) // the names above are all valid
			}
			dev := gemmDevices[syms[(rows[i]+cols[j])%4]]()
			cfg.Device = device.Scaled(dev, gensweep.GEMMScale)
			cfg.MinThreadsPerMultiprocessor = gensweep.GEMMMinThreads
			specs = append(specs, Spec{Name: k + "_" + t + "@" + dev.Name, GEMM: &cfg})
		}
	}
	return specs
}

// stencilSpecs returns 16 variants of the committed stencil spec. The 32-point
// settings grid elem_size x halo x max_threads x max_shmem x
// min_occupancy_threads is walked as 16 pairs that differ only in
// min_occupancy_threads; seed 0 keeps 256 in every pair, other seeds pick one
// point of each pair. The two points of a pair differ by at most a tenth in
// visits, so any draw keeps the total close to the seed-0 total.
func stencilSpecs(seed int64, src string) ([]Spec, error) {
	var rng *rand.Rand
	if seed != 0 {
		rng = rand.New(rand.NewSource(seed))
	}
	var specs []Spec
	for _, es := range []int{4, 8} {
		for _, halo := range []int{1, 2} {
			for _, mt := range []int{512, 1024} {
				for _, shmem := range []int{49152, 98304} {
					occ := 256
					if rng != nil && rng.Intn(2) == 0 {
						occ = 128
					}
					text := src
					var err error
					for _, kv := range []struct {
						k string
						v int
					}{{"elem_size", es}, {"halo", halo}, {"max_threads", mt}, {"max_shmem", shmem}, {"min_occupancy_threads", occ}} {
						if text, err = setSetting(text, kv.k, kv.v); err != nil {
							return nil, err
						}
					}
					name := fmt.Sprintf("stencil_e%d_h%d_t%d_s%d_o%d", es, halo, mt, shmem, occ)
					specs = append(specs, Spec{Name: name, Text: text})
				}
			}
		}
	}
	return specs, nil
}

// setSetting rewrites the single `setting name = N` line of a spec.
func setSetting(src, name string, v int) (string, error) {
	re := regexp.MustCompile(`(?m)^setting\s+` + regexp.QuoteMeta(name) + `\s*=\s*\d+`)
	if n := len(re.FindAllStringIndex(src, -1)); n != 1 {
		return "", fmt.Errorf("stencil spec: want one `setting %s` line, found %d", name, n)
	}
	return re.ReplaceAllString(src, "setting "+name+" = "+strconv.Itoa(v)), nil
}

// denseSpec returns the one large, lightly pruned space: a%5, bb%7, cc%11,
// cc%13, (a+cc)%17==0 and (bb*cc)%19==r. Seed 0 gives r = 3; other seeds
// draw r from 1..18, which keeps the kill fractions and so the work. The
// other moduli and residues stay fixed because the planner's nest choice
// flips with them: the sum residue, or merely swapping the declaration
// order of the two unary checks, moves the nest between [a cc bb] and
// [a bb cc], and the generated C runs 1.7x apart on the two. Seeds would
// then sample two plans rather than two inputs; NOTES.md records the
// sensitivity.
func denseSpec(seed int64) Spec {
	r := 3
	if seed != 0 {
		r = 1 + rand.New(rand.NewSource(seed)).Intn(18)
	}
	text := fmt.Sprintf(`# Dense space: light pruning, so tabulation, chunk masks and delivery dominate.
a = range(1, 48)
bb = range(1, 48)
cc = range(1, 3072)

constraint soft a_mod: a %% 5 == 0
constraint soft bb_mod: bb %% 7 == 0
constraint soft cc_mod1: cc %% 11 == 0
constraint soft cc_mod2: cc %% 13 == 0
constraint soft sum_mod: (a + cc) %% 17 == 0
constraint soft prod_mod: (bb * cc) %% 19 == %d
`, r)
	return Spec{Name: "dense", Text: text}
}

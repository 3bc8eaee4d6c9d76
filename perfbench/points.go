package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"fpb/internal/exp"
	"fpb/internal/sim"
	"fpb/internal/stats"
	"fpb/internal/system"
)

// Instruction budgets per core: the bench scale of fpbexp -exp fig18, and
// the paper-scale budget of the write-heavy simulations.
const (
	fig18Instr  = 20_000
	writesInstr = 200_000
)

// writeHeavyApps are the four apps with the highest writes per kilo-
// instruction (WPKI 1.7–4.2).
var writeHeavyApps = []string{"mum_m", "mcf_m", "lbm_m", "bwa_m"}

// paperFig18 is what the paper claims for Fig. 18 (gmean write throughput
// over DIMM+chip). The benchmark prints it beside the model; it gates
// nothing.
var paperFig18 = map[string]float64{"GCP": 1.59, "GCP+IPM+MR": 3.4}

// batchOptions are the exp.Runner options of an in-process batch, which is
// always fpbexp's own Fig. 18 experiment: all apps at bench scale on nproc
// workers, or the write-heavy apps at paper scale one simulation at a time.
func batchOptions(workload string) exp.Options {
	if workload == "sim_writes_long" {
		return exp.Options{InstrPerCore: writesInstr, Workloads: writeHeavyApps, Workers: 1}
	}
	return exp.Options{InstrPerCore: fig18Instr, Workers: runtime.NumCPU()}
}

// runFig18 runs fpbexp's Fig. 18 experiment on r.
func runFig18(r *exp.Runner) (*stats.Table, error) {
	e, ok := exp.ByID("fig18")
	if !ok {
		return nil, fmt.Errorf("no fig18 experiment")
	}
	return e.Run(r)
}

// point is one (config, workload) simulation of a batch.
type point struct {
	asked sim.Config // the config the experiment asked exp.Runner for
	cfg   sim.Config // asked, with the benchmark's seed: what is simulated
	wl    string
	key   string // system.Key(cfg, wl)
}

func (p point) String() string { return p.cfg.Scheme.String() + "/" + p.wl }

// seeded wraps a simulation backend: it puts the benchmark's seed into every
// config and hands each simulated point and its result to record.
func seeded(seed uint64, run exp.Backend, record func(point, system.Result)) exp.Backend {
	return func(cfg sim.Config, wl string) (system.Result, error) {
		p := point{asked: cfg, cfg: cfg, wl: wl}
		p.cfg.Seed = seed
		p.key = system.Key(p.cfg, wl)
		res, err := run(p.cfg, wl)
		if err == nil {
			record(p, res)
		}
		return res, err
	}
}

// workloadPoints lists the points a workload simulates, in key order, from
// a dry run of the Fig. 18 experiment whose backend simulates nothing.
func workloadPoints(workload string, seed uint64) []point {
	var mu sync.Mutex
	var pts []point
	opt := batchOptions(workload)
	opt.Backend = seeded(seed, func(sim.Config, string) (system.Result, error) { return system.Result{}, nil },
		func(p point, _ system.Result) {
			mu.Lock()
			pts = append(pts, p)
			mu.Unlock()
		})
	if _, err := runFig18(exp.NewRunner(opt)); err != nil {
		panic(err) // the dry backend cannot fail
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].key < pts[j].key })
	return pts
}

// baseConfig is the config every Fig. 18 point starts from: the exp.Runner
// base config at the given budget, with the benchmark's seed.
func baseConfig(seed, instr uint64) sim.Config {
	cfg := exp.NewRunner(exp.Options{InstrPerCore: instr}).BaseConfig()
	cfg.Seed = seed
	return cfg
}

// digest is the SHA-256 of a result's canonical encoding (encoding/json:
// declaration-ordered fields, sorted metric keys, shortest round-trip
// floats), so a result that crossed HTTP hashes like the in-process one.
func digest(res system.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// paperLine puts the gmean row of the model's Fig. 18 table beside the
// paper's claims.
func paperLine(t *stats.Table) string {
	gmeans := t.Row(t.NumRows() - 1)
	var parts []string
	for i, label := range t.Columns[1:] {
		s := fmt.Sprintf("%s %sx", label, gmeans[i+1])
		if p, ok := paperFig18[label]; ok {
			s += fmt.Sprintf(" (paper %.2fx)", p)
		}
		parts = append(parts, s)
	}
	return "model vs paper Fig. 18 gmeans: " + strings.Join(parts, ", ") +
		"; not gated: beyond these two claims the model is unvalidated, and no error figure is given"
}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden pins the outputs of the default seed: one digest per point of each
// in-process batch and the Fig. 18 table each batch renders. Regenerate it with
// -update-golden and review the diff.
type golden struct {
	Seed   uint64    `json:"seed"`
	Fig18  goldenSet `json:"fig18_cold"`
	Writes goldenSet `json:"sim_writes_long"`
}

type goldenSet struct {
	InstrPerCore uint64            `json:"instr_per_core"`
	Digests      map[string]string `json:"digests"` // system.Key -> digest
	Table        string            `json:"table"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return golden{}, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

// goldenFor returns the pinned set for a workload's batch when seed is the
// pinned seed, else nil.
func goldenFor(workload string, seed uint64) (*goldenSet, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if seed != g.Seed {
		return nil, nil
	}
	if workload == "sim_writes_long" {
		return &g.Writes, nil
	}
	return &g.Fig18, nil
}

// checker counts attempted and failed operations and checks every result
// against a reference digest per key. With pinned references (the golden
// set, or in-process results for a fleet) an unknown key fails; otherwise
// the first result seen for a key becomes its reference, so repetitions
// must agree byte for byte.
type checker struct {
	mu        sync.Mutex
	want      map[string]string
	pinned    bool
	attempted int
	failed    int
	errs      []string
}

func newChecker(want map[string]string) *checker {
	c := &checker{want: map[string]string{}, pinned: want != nil}
	for k, v := range want {
		c.want[k] = v
	}
	return c
}

// check records one attempted operation whose result has digest d.
func (c *checker) check(what, key, d string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	want, ok := c.want[key]
	if !ok && !c.pinned {
		c.want[key] = d
		return true
	}
	if d == want {
		return true
	}
	c.failLocked(fmt.Sprintf("%s: result %.12s for key %.12s, want %.12s", what, d, key, want))
	return false
}

// pin makes digests the authoritative references.
func (c *checker) pin(digests map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range digests {
		c.want[k] = v
	}
	c.pinned = true
}

// pass records n attempted operations that were checked elsewhere and
// succeeded.
func (c *checker) pass(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += n
}

// fail records one attempted operation that failed outright.
func (c *checker) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failLocked(msg)
}

func (c *checker) failLocked(msg string) {
	c.failed++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, msg)
	}
}

// checkBatch checks one repetition's digests: every point present, each
// matching its reference.
func (c *checker) checkBatch(what string, pts []point, digests map[string]string) {
	for _, p := range pts {
		name := fmt.Sprintf("%s %s", what, p)
		if d, ok := digests[p.key]; ok {
			c.check(name, p.key, d)
		} else {
			c.fail(name + ": no result")
		}
	}
}

// digestsOf maps each point's key to its digest.
func digestsOf(results map[string]system.Result) map[string]string {
	out := make(map[string]string, len(results))
	for k, r := range results {
		out[k] = digest(r)
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

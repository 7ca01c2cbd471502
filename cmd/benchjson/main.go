// Command benchjson runs the GP engine's benchmark workloads through the
// testing.Benchmark harness and records the results as machine-readable
// JSON — the committed BENCH_gp.json baseline that lets a later change
// prove (or disprove) a speedup without re-reading benchmark logs.
//
// The output file is a history document {"entries": [...]}: each run
// appends one dated entry instead of clobbering what is there, so the
// baseline's past stays diffable. Re-running on the same date with the
// same -quick setting replaces that day's entry (idempotent re-runs). An
// existing file that is not such a history is an error, never
// overwritten.
//
// The workloads mirror the repo's benchmarks: the per-sample tree
// interpreter vs the compiled batch VM (BenchmarkGPTreeEval /
// BenchmarkGPCompiledEval in internal/gp), and the Table 8 full-budget
// inference runs (BenchmarkGPInferUDS/KWP/OBD in bench_test.go). The
// cross-generation fitness-cache hit rate comes from the engine's own
// Result counters, so it is exact rather than sampled.
//
// Usage:
//
//	benchjson                 # merges into BENCH_gp.json in the working directory
//	benchjson -o out.json     # merges elsewhere
//	benchjson -quick          # reduced GP budget (CI smoke)
//	benchjson -date 2026-08-05  # override the entry date
//
// All timing flows through testing.Benchmark; apart from the annotated
// entry-date stamp this command never reads the wall clock, so it stays
// inside the repo's determinism lint (the *numbers* vary run to run —
// that is the point of a benchmark — but the code path is clock-free).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"dpreverser/internal/benchdoc"
	"dpreverser/internal/gp"
)

// result is one benchmark row in the JSON output.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// cacheStats is the engine-reported fitness-cache summary for one full
// evolution run at the default budget.
type cacheStats struct {
	Evaluations int     `json:"evaluations"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
}

// report is one dated run of the benchmark suite.
type report struct {
	Date       string     `json:"date"`
	Quick      bool       `json:"quick,omitempty"`
	Benchmarks []result   `json:"benchmarks"`
	Cache      cacheStats `json:"cache"`
	// SpeedupEvalVsTree is ns/op(tree) / ns/op(compiled): how many times
	// faster the batch VM evaluates the reference workload than the
	// recursive interpreter.
	SpeedupEvalVsTree float64 `json:"speedup_eval_vs_tree"`
}

// history is the whole BENCH_gp.json document: every recorded run, oldest
// first (the artifact format shared with BENCH_server.json).
type history = benchdoc.History[report]

// allocRatchetSlack is the tolerated allocs/op growth for GPInferOBD
// over the committed baseline: allocation counts are deterministic
// enough that anything past 10% means a hot path started allocating.
const allocRatchetSlack = 1.10

// findBench returns the named benchmark row from a report.
func findBench(rep report, name string) (result, bool) {
	for _, row := range rep.Benchmarks {
		if row.Name == name {
			return row, true
		}
	}
	return result{}, false
}

// checkAllocRatchet compares the fresh GPInferOBD allocs/op against the
// most recent committed entry with the same -quick setting and fails if
// they regressed past the ratchet slack. With no comparable baseline
// (first run, or first run at this budget) the check is a no-op —
// merging the entry establishes the baseline.
func checkAllocRatchet(hist history, rep report) error {
	fresh, ok := findBench(rep, "GPInferOBD")
	if !ok {
		return nil
	}
	for i := len(hist.Entries) - 1; i >= 0; i-- {
		old := hist.Entries[i]
		if old.Quick != rep.Quick {
			continue
		}
		base, ok := findBench(old, "GPInferOBD")
		if !ok || base.AllocsPerOp <= 0 {
			return nil
		}
		limit := int64(float64(base.AllocsPerOp) * allocRatchetSlack)
		if fresh.AllocsPerOp > limit {
			return fmt.Errorf("GPInferOBD allocs/op regressed: %d > %d (baseline %d from %s, +10%% slack)",
				fresh.AllocsPerOp, limit, base.AllocsPerOp, old.Date)
		}
		fmt.Fprintf(os.Stderr, "%-28s %d allocs/op within ratchet (baseline %d from %s)\n",
			"GPInferOBD ratchet", fresh.AllocsPerOp, base.AllocsPerOp, old.Date)
		return nil
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("o", "BENCH_gp.json", "benchmark history file to merge into")
	quick := flag.Bool("quick", false, "reduced GP budget (CI smoke run)")
	date := flag.String("date", "", "entry date, YYYY-MM-DD (default: today)")
	allowRegress := flag.Bool("allow-regress", false,
		"record the entry even if GPInferOBD allocs/op regress past the ratchet")
	flag.Parse()

	if *date == "" {
		*date = time.Now().Format("2006-01-02") //dplint:allow determinism entry dates come from the wall clock
	}
	rep := report{Date: *date, Quick: *quick}

	tree := benchTree()
	d := benchDataset(256)
	batch := gp.NewBatch(d)

	record := func(name string, fn func(b *testing.B)) result {
		r := testing.Benchmark(fn)
		row := result{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
		fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %8d B/op %6d allocs/op\n",
			name, int64(row.NsPerOp), row.BytesPerOp, row.AllocsPerOp)
		return row
	}

	// Micro: interpreter vs compiled VM on the same 256-row workload.
	treeRow := record("GPTreeEval", func(b *testing.B) {
		sink := 0.0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, row := range d.X {
				sink += tree.Eval(row)
			}
		}
		_ = sink
	})
	p := gp.Compile(tree)
	m := gp.NewMachine()
	compiledRow := record("GPCompiledEval", func(b *testing.B) {
		sink := 0.0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			preds := p.Eval(batch, m)
			sink += preds[0]
		}
		_ = sink
	})
	// The with-compile row reuses one Compiler the way the engine does
	// (its Program aliases the compiler's scratch), so steady state is
	// 0 allocs/op; the package-level gp.Compile would add the owned-copy
	// cost its immutable/concurrency-safe contract requires.
	c := gp.NewCompiler()
	record("GPCompiledEvalWithCompile", func(b *testing.B) {
		sink := 0.0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := c.Compile(tree)
			preds := q.Eval(batch, m)
			sink += preds[0]
		}
		_ = sink
	})
	if compiledRow.NsPerOp > 0 {
		rep.SpeedupEvalVsTree = treeRow.NsPerOp / compiledRow.NsPerOp
	}

	// Macro: the Table 8 inference workloads at the benchmark budget.
	budget := func(cfg gp.Config) gp.Config {
		cfg.StopFitness = -1 // full budget, as Table 8 accounts it
		if *quick {
			cfg.PopulationSize = 100
			cfg.Generations = 5
		}
		return cfg
	}
	for _, w := range []struct {
		name string
		d    *gp.Dataset
	}{
		{"GPInferUDS", udsDataset()},
		{"GPInferKWP", kwpDataset()},
		{"GPInferOBD", obdDataset()},
	} {
		w := w
		record(w.name, func(b *testing.B) {
			cfg := budget(gp.DefaultConfig())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				if _, err := gp.Run(w.d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Exact cache accounting from the engine's own counters.
	cfg := budget(gp.DefaultConfig())
	cfg.Seed = 1
	res, err := gp.Run(kwpDataset(), cfg)
	if err != nil {
		return err
	}
	rep.Cache = cacheStats{
		Evaluations: res.Evaluations,
		CacheHits:   res.CacheHits,
		CacheMisses: res.CacheMisses,
	}
	if res.Evaluations > 0 {
		rep.Cache.HitRate = float64(res.CacheHits) / float64(res.Evaluations)
	}
	fmt.Fprintf(os.Stderr, "%-28s %d evals, %.1f%% cache hits\n",
		"GPFitnessCache", rep.Cache.Evaluations, 100*rep.Cache.HitRate)

	hist, err := benchdoc.Load[report](*out)
	if err != nil {
		return err
	}
	if err := checkAllocRatchet(hist, rep); err != nil {
		if !*allowRegress {
			return err
		}
		fmt.Fprintln(os.Stderr, "benchjson: WARNING (recorded anyway):", err)
	}
	hist.Merge(rep, func(old report) bool { return old.Date == rep.Date && old.Quick == rep.Quick })
	if err := hist.Write(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d entries)\n", *out, len(hist.Entries))
	return nil
}

// benchTree mirrors internal/gp's benchmark formula: a representative
// mid-size evolved shape with a protected division and a foldable
// constant subtree — ((X0 * (2 * 1.5)) + sqrt(X1)) / (X1 - 3) + X0.
func benchTree() *gp.Node {
	return gp.NewBinary(gp.OpAdd,
		gp.NewBinary(gp.OpDiv,
			gp.NewBinary(gp.OpAdd,
				gp.NewBinary(gp.OpMul, gp.NewVar(0),
					gp.NewBinary(gp.OpMul, gp.NewConst(2), gp.NewConst(1.5))),
				gp.NewUnary(gp.OpSqrt, gp.NewVar(1))),
			gp.NewBinary(gp.OpSub, gp.NewVar(1), gp.NewConst(3))),
		gp.NewVar(0))
}

func benchDataset(rows int) *gp.Dataset {
	rng := rand.New(rand.NewSource(1))
	d := &gp.Dataset{}
	for i := 0; i < rows; i++ {
		d.X = append(d.X, []float64{rng.Float64() * 255, rng.Float64() * 255})
		d.Y = append(d.Y, rng.Float64()*100)
	}
	return d
}

// udsDataset / kwpDataset / obdDataset mirror the Table 8 benchmark
// inputs in bench_test.go.
func udsDataset() *gp.Dataset {
	d := &gp.Dataset{}
	for x := 0.0; x <= 255; x += 4 {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 0.75*x-48)
	}
	return d
}

func kwpDataset() *gp.Dataset {
	d := &gp.Dataset{}
	for x0 := 200.0; x0 <= 250; x0 += 10 {
		for x1 := 0.0; x1 <= 255; x1 += 16 {
			d.X = append(d.X, []float64{x0, x1})
			d.Y = append(d.Y, x0*x1/5)
		}
	}
	return d
}

func obdDataset() *gp.Dataset {
	d := &gp.Dataset{}
	for hi := 0.0; hi <= 64; hi += 4 {
		for lo := 0.0; lo <= 255; lo += 32 {
			d.X = append(d.X, []float64{hi, lo})
			d.Y = append(d.Y, (256*hi+lo)/4)
		}
	}
	return d
}

// Command perfbench is the repository's end-to-end benchmark. It drives
// the two user-facing paths in-process and prints one JSON result line:
//
//   - serve-upload: captures POSTed to an in-process jobserver over
//     loopback HTTP, long-polled to completion, results fetched;
//   - serve-stream: the same server, each capture streamed frame by frame
//     over a canbridge ingest session;
//   - batch-full: reverser.Reverse called directly at the paper's GP
//     budget on full-duration captures, one car at a time.
//
// Every workload runs the whole 18-car fleet as its fixed job set. Each
// served or computed result is checked byte for byte against a reference
// computed in-process at set-up, and the exact counts (formulas matching
// ground truth, GP evaluations) must repeat. See README.md for the
// metrics, the layer attribution table and the baseline.
//
// Usage:
//
//	go run . -workload serve-upload -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the program reads: the workloads and
// the metrics of each kind of run, the one place their names and units
// are kept.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json and checks that it names exactly the
// workloads this program runs.
func loadSpec(path string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.Workloads) != len(workloads) {
		return sp, fmt.Errorf("%s lists %d workloads, the program runs %d", path, len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return sp, fmt.Errorf("%s: workload %q is unknown to the program", path, w.Name)
		}
	}
	return sp, nil
}

// metrics is the declared metric set of one kind of run.
func (sp spec) metrics(trace bool) []metricDef {
	if trace {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// options is one invocation's settings.
type options struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Trace    bool
	// Out is where the traced run writes its chrome://tracing document.
	Out string
	// Metrics are the metrics the run must report, as BENCHMARK.json
	// declares them for this kind of run.
	Metrics []metricDef
	// Cars limits the fixed job set to the named fleet cars (empty =
	// the whole fleet); the tests use it for a tiny run of each workload.
	Cars []string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(opt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// parseFlags reads the command line.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-upload, serve-stream or batch-full")
	seed := fs.Int64("seed", 1, "job-order seed (captures and GP seeds are fixed per workload)")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced attribution run and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced run's chrome trace")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's BENCHMARK.json, which declares its metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return options{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q (want serve-upload, serve-stream or batch-full)", *workload)
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("-trace must be 0 or 1")
	}
	return options{
		Workload: *workload,
		Seed:     *seed,
		Window:   time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		Out:      *out,
		Metrics:  sp.metrics(*trace == 1),
	}, nil
}

// nproc is the load generator's concurrency ceiling and the batch
// reverser's worker count.
func nproc() int { return runtime.NumCPU() }

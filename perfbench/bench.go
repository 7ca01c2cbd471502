package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpreverser/internal/reverser"
	"dpreverser/internal/telemetry"
)

// setupRuns is how many times a run sets its workload up; setup_s is the
// median. Set-up is short (0.1 to 1.2 s) next to the timed window, so
// several keep one slow set-up from moving the metric.
const setupRuns = 7

// attributionPasses is how many passes over the fixed job set the traced
// run's attribution pass makes.
const attributionPasses = 6

// maxJobs is the length of the seeded job order, the most jobs one timed
// window can run. At the baseline rates a 30-second window runs at most
// about 2,500.
const maxJobs = 50_000

// workloads maps each workload name to its set-up.
var workloads = map[string]func(opt options) (fixture, error){
	"serve-upload": setupUpload,
	"serve-stream": setupStream,
	"batch-full":   setupBatch,
}

// fixture is one workload after set-up: the fixed job set, its reference
// outputs, and the system under test.
type fixture interface {
	// size is the fixed job set's length (one job per car).
	size() int
	// clients is the closed-loop client count.
	clients() int
	// job runs job seq on car as one client; tr, when non-nil, records
	// spans around each call into a layer.
	job(seq, car int, tr *telemetry.Tracer) sample
	// finish runs after a segment's timed part: it completes the output
	// gate for outputs checked after the segment and reads the traced
	// jobs' server-side phases.
	finish(samples []sample)
	// reference reports the exact counts computed at set-up.
	reference() exactCounts
	// attribute calls each layer's public function directly on car's
	// input, single-threaded, under root.
	attribute(car int, root *telemetry.Span) attributed
	// reset starts the system under test afresh before each segment.
	reset() error
	close()
}

// sample is one finished job of a timed window.
type sample struct {
	Seq, Car int
	Latency  time.Duration
	// OK is the output gate: the output equals its reference byte for
	// byte.
	OK bool
	// Failed marks a job that failed, was refused or never finished.
	Failed     bool
	Rejections int
	// Correct and Evals are the output's exact counts: ESV formulas that
	// match ground truth (assembled messages on serve-stream) and GP
	// evaluations.
	Correct, Evals int
	// JobID, QueueWaitMS, RunMS and StageMS are the job's server id and
	// server-side phases (traced served jobs only).
	JobID                       string
	QueueWaitMS, RunMS, StageMS float64
	// Result is the batch workload's in-process output. The batch caller
	// keeps every result of a segment, as a fleet report would.
	Result *reverser.Result
}

// exactCounts are the counts over the fixed job set that must repeat
// exactly in every run.
type exactCounts struct {
	Correct  int // formulas_correct
	Evals    int // GP evaluations
	Hits     int // GP cache hits
	Degraded int // degraded streams
}

// add folds one reference result into the fixed job set's exact counts.
func (e *exactCounts) add(correct int, res *reverser.Result) {
	e.Correct += correct
	e.Evals += res.Evaluations
	e.Hits += res.CacheHits
	e.Degraded += len(res.Degraded)
}

// attributed is what one attribution job measured besides its spans: the
// heap KB its direct layer calls allocated, and the screening findings.
type attributed struct {
	ReadKB, AssembleKB, EncodeKB float64
	Findings                     int
}

// allocKB runs fn and returns the heap bytes it allocated, in KB.
func allocKB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1e3
}

// jobOrder is the seeded job sequence: every pass over the fleet is a
// fresh permutation, so each car appears once per pass.
func jobOrder(seed int64, n, jobs int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, jobs+n)
	for len(out) < jobs {
		out = append(out, rng.Perm(n)...)
	}
	return out[:jobs]
}

// segmentPasses is how many passes over the fixed job set one segment of
// a timed window runs at most. Each segment starts on a fresh system
// (fixture.reset), so the finished jobs the job server keeps stay bounded
// however fast it gets, and every window starts from the same state.
const segmentPasses = 20

// window is one timed closed-loop run.
type window struct {
	Samples []sample
	// Elapsed is the timed part: segments only, not the forced
	// collections and restarts between them.
	Elapsed time.Duration
	// AllocBytes sums each segment's TotalAlloc delta.
	AllocBytes uint64
	// RetainedKB is each segment's post-GC live-heap delta per job. The
	// metric is their median, so the shorter last segment, whose fixed
	// costs weigh more per job, does not move it.
	RetainedKB []float64
}

// jobsPerS is completed jobs over the window.
func (w window) jobsPerS() float64 { return float64(len(w.Samples)) / w.Elapsed.Seconds() }

// liveHeap forces two collections (the second empties sync.Pool victim
// caches) and reads the live heap and cumulative allocation.
func liveHeap() (live, total uint64) {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, m.TotalAlloc
}

// closedLoop runs closed-loop clients, each claiming the next job of order
// from first on and waiting for its output before claiming another, until
// a claim reaches last, or the clock has passed deadline and at least
// minJobs jobs were claimed. The jobs run are order[first:first+len(out)].
func closedLoop(fx fixture, order []int, first, last int, clock telemetry.Clock, deadline time.Duration, minJobs int, tr *telemetry.Tracer) []sample {
	clients := fx.clients()
	per := make([][]sample, clients)
	var next atomic.Int64
	next.Store(int64(first))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				seq := int(next.Add(1)) - 1
				if seq >= last || (seq >= minJobs && clock.Now() >= deadline) {
					return
				}
				per[c] = append(per[c], fx.job(seq, order[seq], tr))
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// timedWindow runs length of timed closed-loop work, at least minJobs
// jobs, in segments. Before each segment it resets the fixture; around
// each it forces a collection and reads allocation and retained heap.
func timedWindow(fx fixture, order []int, clock telemetry.Clock, length time.Duration, minJobs int, tr *telemetry.Tracer) (window, error) {
	var w window
	for seq := 0; seq < len(order) && (seq < minJobs || w.Elapsed < length); seq = len(w.Samples) {
		if err := fx.reset(); err != nil {
			return w, err
		}
		liveBefore, totalBefore := liveHeap()
		start := clock.Now()
		last := min(len(order), seq+segmentPasses*fx.size())
		samples := closedLoop(fx, order, seq, last, clock, start+length-w.Elapsed, minJobs, tr)
		w.Elapsed += clock.Now() - start
		liveAfter, totalAfter := liveHeap()
		fx.finish(samples)
		w.Samples = append(w.Samples, samples...)
		w.AllocBytes += totalAfter - totalBefore
		if len(samples) > 0 {
			w.RetainedKB = append(w.RetainedKB, float64(int64(liveAfter)-int64(liveBefore))/1e3/float64(len(samples)))
		}
	}
	return w, nil
}

// gate checks a window's outputs: failed and mismatched jobs, and exact
// counts over the fixed job set that differ from the set-up values.
func gate(fx fixture, w window) (failed int, problems []string) {
	n := fx.size()
	first := make([]*sample, n)
	for i := range w.Samples {
		s := &w.Samples[i]
		if s.Failed || !s.OK {
			failed++
			continue
		}
		if f := first[s.Car]; f == nil {
			first[s.Car] = s
		} else if f.Correct != s.Correct || f.Evals != s.Evals {
			problems = append(problems, fmt.Sprintf("car %d: exact counts vary between jobs (%d/%d vs %d/%d)",
				s.Car, f.Correct, f.Evals, s.Correct, s.Evals))
		}
	}
	var got exactCounts
	for car, s := range first {
		if s == nil {
			problems = append(problems, fmt.Sprintf("car %d: no job passed the output gate", car))
			continue
		}
		got.Correct += s.Correct
		got.Evals += s.Evals
	}
	if ref := fx.reference(); got.Correct != ref.Correct || got.Evals != ref.Evals {
		problems = append(problems, fmt.Sprintf("exact counts %d formulas / %d evaluations differ from set-up %d / %d",
			got.Correct, got.Evals, ref.Correct, ref.Evals))
	}
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d jobs failed, were refused or mismatched their reference",
			failed, len(w.Samples)))
	}
	return failed, problems
}

// run executes one benchmark invocation and builds its report.
func run(opt options, log io.Writer) (report, error) {
	setup := workloads[opt.Workload]
	clock := telemetry.NewWallClock()

	var fx fixture
	var setupS []float64
	for i := 0; i < setupRuns; i++ {
		if fx != nil {
			fx.close()
		}
		start := clock.Now()
		f, err := setup(opt)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, (clock.Now() - start).Seconds())
		fx = f
	}
	defer fx.close()

	// Every window runs at least the jobs its p90 needs.
	minJobs := minSamplesFor(0.9)
	order := jobOrder(opt.Seed, fx.size(), maxJobs)
	// Warm-up: one untimed pass over the fixed job set.
	closedLoop(fx, order, 0, fx.size(), clock, 0, fx.size(), nil)

	length := opt.Window
	if opt.Trace {
		// The traced run times an untraced and a traced window back to
		// back; each gets half the run so memory stays that of one window.
		length /= 2
	}
	plain, err := timedWindow(fx, order, clock, length, minJobs, nil)
	if err != nil {
		return report{}, err
	}
	rep := report{Correct: true, Metrics: map[string]metric{}}
	windows := []window{plain}
	var traced window
	var tr *telemetry.Tracer
	if opt.Trace {
		tr = telemetry.NewTracer(clock)
		if traced, err = timedWindow(fx, order, clock, length, minJobs, tr); err != nil {
			return report{}, err
		}
		windows = append(windows, traced)
	}
	for _, w := range windows {
		failed, problems := gate(fx, w)
		rep.Attempted += len(w.Samples)
		rep.Failed += failed
		for _, p := range problems {
			rep.Correct = false
			fmt.Fprintln(log, "perfbench: output gate:", p)
		}
	}

	var vals map[string]float64
	if !opt.Trace {
		vals, err = endToEndMetrics(fx, plain, setupS)
	} else {
		calls := make([]attributed, 0, attributionPasses*fx.size())
		for i := 0; i < cap(calls); i++ {
			car := order[i]
			root := tr.Start("attr", telemetry.Int("car", car))
			calls = append(calls, fx.attribute(car, root))
			root.End()
		}
		if vals, err = layerMetrics(fx, plain, traced, tr.Spans(), calls); err == nil {
			err = writeTrace(opt, tr)
		}
	}
	if err != nil {
		return report{}, err
	}
	if err := attachUnits(&rep, opt.Metrics, vals); err != nil {
		return report{}, err
	}
	logSummary(log, opt, plain, setupS)
	return rep, nil
}

// attachUnits fills the report with the computed values, each with the
// unit BENCHMARK.json declares for it. Every declared metric must have
// been computed, and every computed one declared.
func attachUnits(rep *report, defs []metricDef, vals map[string]float64) error {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, which this run does not compute", d.Name)
		}
		rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := rep.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// endToEndMetrics computes the untraced run's metrics.
func endToEndMetrics(fx fixture, w window, setupS []float64) (map[string]float64, error) {
	lat := make([]float64, 0, len(w.Samples))
	for _, s := range w.Samples {
		if !s.Failed {
			lat = append(lat, ms(s.Latency))
		}
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return nil, err
	}
	jobs := float64(len(w.Samples))
	return map[string]float64{
		"setup_s":             median(setupS),
		"jobs_per_s":          w.jobsPerS(),
		"latency_p50_ms":      p50,
		"latency_p90_ms":      p90,
		"alloc_mb_per_job":    float64(w.AllocBytes) / 1e6 / jobs,
		"retained_kb_per_job": median(w.RetainedKB),
		"formulas_correct":    float64(fx.reference().Correct),
	}, nil
}

// logSummary prints the human-readable run summary on stderr: the sample
// counts behind the percentiles and the failed ratio the result line
// carries as failed/attempted.
func logSummary(log io.Writer, opt options, w window, setupS []float64) {
	failed := 0
	for _, s := range w.Samples {
		if s.Failed || !s.OK {
			failed++
		}
	}
	n := len(w.Samples) - failed
	fmt.Fprintf(log, "perfbench: %s seed %d: %d jobs in %.2fs timed (%.1f jobs/s), failed_ratio %.4f, "+
		"latency over %d samples (%d beyond p90), %d segments, set-up runs %.3v s\n",
		opt.Workload, opt.Seed, len(w.Samples), w.Elapsed.Seconds(), w.jobsPerS(),
		float64(failed)/float64(len(w.Samples)), n, n-rank(n, 0.9), len(w.RetainedKB), setupS)
}

// writeTrace writes the traced run's spans as a chrome://tracing document.
func writeTrace(opt options, tr *telemetry.Tracer) error {
	if opt.Out == "" {
		return nil
	}
	if err := os.MkdirAll(opt.Out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(opt.Out, fmt.Sprintf("trace-%s-seed%d.json", opt.Workload, opt.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

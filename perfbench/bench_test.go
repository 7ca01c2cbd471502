package main

import (
	"io"
	"math"
	"sort"
	"testing"
	"time"

	"dpreverser/internal/telemetry"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	if got := minSamplesFor(0.9); got != 100 {
		t.Fatalf("minSamplesFor(0.9) = %d, want 100", got)
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // unsorted on purpose
	}
	p90, err := percentile(samples, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if p90 != 90 {
		t.Fatalf("p90 = %v, want 90 (nearest rank)", p90)
	}
	if _, err := percentile(samples[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it and must be refused")
	}
	if p50, err := percentile(samples[:20], 0.5); err != nil || p50 != 90 {
		t.Fatalf("p50 of 20 samples = %v, %v; want 90", p50, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
}

func TestSelfTimes(t *testing.T) {
	const ms = time.Millisecond
	span := func(id, parent int64, start, end time.Duration) telemetry.SpanData {
		return telemetry.SpanData{ID: id, Parent: parent, Name: "s", Start: start * ms, End: end * ms}
	}
	spans := []telemetry.SpanData{
		span(1, 0, 0, 100),
		span(2, 1, 10, 40),  // overlaps 3
		span(3, 1, 30, 60),  // concurrent sibling
		span(4, 1, 90, 120), // reaches past its parent: clipped at 100
		span(5, 2, 15, 20),
		span(6, 0, 200, 210), // a second root
	}
	want := map[int64]time.Duration{
		1: 40 * ms, // 100 - |[10,60] ∪ [90,100]|
		2: 25 * ms, // 30 - 5
		3: 30 * ms,
		4: 30 * ms,
		5: 5 * ms,
		6: 10 * ms,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestDeliveryFromPhases(t *testing.T) {
	p := phases{LatencyMS: 30, SubmitMS: 5, QueueWaitMS: 2, RunMS: 12, ResultMS: 1, StageMS: 11.5}
	if d := p.deliveryMS(); d != 10 {
		t.Fatalf("delivery = %v, want 10", d)
	}
	if o := p.runOverheadMS(); o != 0.5 {
		t.Fatalf("run overhead = %v, want 0.5", o)
	}

	// The median band's mean phases add up to its mean latency.
	var all []phases
	for i := 0; i < 40; i++ {
		f := float64(i)
		all = append(all, phases{LatencyMS: 20 + f, SubmitMS: 3 + f/10, QueueWaitMS: 1, RunMS: 10 + f/2, ResultMS: 0.5})
	}
	band := medianBand(all)
	if len(band) != 5 {
		t.Fatalf("median band of 40 holds %d samples, want 5 (ranks 18 to 22)", len(band))
	}
	m := meanPhases(band)
	if m.LatencyMS != 39 {
		t.Fatalf("band latency %v is not at the median of 20..59", m.LatencyMS)
	}
	sum := m.SubmitMS + m.QueueWaitMS + m.RunMS + m.ResultMS + m.deliveryMS()
	if math.Abs(sum-m.LatencyMS) > 1e-9 {
		t.Fatalf("phases sum to %v, latency is %v", sum, m.LatencyMS)
	}
}

func TestJobOrderIsSeededRoundRobin(t *testing.T) {
	a, b := jobOrder(7, 5, 23), jobOrder(7, 5, 23)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed gave different job orders")
		}
	}
	for pass := 0; pass+5 <= len(a); pass += 5 {
		seen := append([]int(nil), a[pass:pass+5]...)
		sort.Ints(seen)
		for i, c := range seen {
			if c != i {
				t.Fatalf("pass at %d is not a permutation of the job set: %v", pass, a[pass:pass+5])
			}
		}
	}
}

// smokeOptions is a tiny version of a workload: two fast cars and the
// smallest window the p90 allows.
func smokeOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return options{
		Workload: workload,
		Seed:     3,
		Window:   time.Second,
		Trace:    trace,
		Metrics:  sp.metrics(trace),
		Cars:     []string{"Car E", "Car M"},
	}
}

func runSmoke(t *testing.T, opt options) report {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs simulate captures and run the pipeline")
	}
	rep, err := run(opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < minSamplesFor(0.9) {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", opt.Workload, rep.Correct, rep.Failed, rep.Attempted)
	}
	if len(rep.Metrics) != len(opt.Metrics) {
		t.Fatalf("%s: %d metrics reported, want %d", opt.Workload, len(rep.Metrics), len(opt.Metrics))
	}
	for _, d := range opt.Metrics {
		if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or with unit %q", opt.Workload, d.Name, m.Unit)
		}
	}
	return rep
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range []string{"serve-upload", "serve-stream", "batch-full"} {
		t.Run(w, func(t *testing.T) {
			opt := smokeOptions(t, w, false)
			rep := runSmoke(t, opt)
			for _, d := range opt.Metrics {
				if rep.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s reads %v; end-to-end metrics are never 0", d.Name, rep.Metrics[d.Name].Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range []string{"serve-upload", "serve-stream", "batch-full"} {
		t.Run(w, func(t *testing.T) {
			opt := smokeOptions(t, w, true)
			opt.Out = t.TempDir()
			m := runSmoke(t, opt).Metrics
			v := func(name string) float64 { return m[name].Value }
			if v("reverser.attack_findings") != 0 || v("jobserver.rejections") != 0 {
				t.Errorf("clean traffic: %v attack findings, %v rejections", v("reverser.attack_findings"), v("jobserver.rejections"))
			}
			if w == "batch-full" {
				if v("jobserver.latency_ms") != 0 || v("reverser.infer_ms") <= 0 || v("gp.pool_parallelism") <= 0 {
					t.Errorf("batch-full layers: latency %v infer %v parallelism %v",
						v("jobserver.latency_ms"), v("reverser.infer_ms"), v("gp.pool_parallelism"))
				}
				return
			}
			sum := v("jobserver.submit_ms") + v("jobserver.queue_wait_ms") + v("jobserver.run_ms") +
				v("jobserver.result_ms") + v("jobserver.delivery_ms")
			if lat := v("jobserver.latency_ms"); lat <= 0 || math.Abs(sum-lat) > 1e-6*lat {
				t.Errorf("phases sum to %v ms, band latency is %v ms", sum, lat)
			}
			onPath := map[string]string{"serve-upload": "rig.read_capture_ms", "serve-stream": "canbridge.session_ms"}
			offPath := map[string]string{"serve-upload": "canbridge.session_ms", "serve-stream": "rig.read_capture_ms"}
			if v(onPath[w]) <= 0 || v(offPath[w]) != 0 {
				t.Errorf("%s reads %v (want > 0), %s reads %v (want 0)", onPath[w], v(onPath[w]), offPath[w], v(offPath[w]))
			}
		})
	}
}

func TestAttachUnitsMatchesDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b", "count"}}
	rep := report{Metrics: map[string]metric{}}
	if err := attachUnits(&rep, defs, map[string]float64{"a_ms": 1.5, "b": 2}); err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["a_ms"] != (metric{1.5, "ms"}) || rep.Metrics["b"] != (metric{2, "count"}) {
		t.Fatalf("metrics = %v", rep.Metrics)
	}
	for _, vals := range []map[string]float64{
		{"a_ms": 1},                 // b declared but not computed
		{"a_ms": 1, "b": 2, "c": 3}, // c computed but not declared
	} {
		rep := report{Metrics: map[string]metric{}}
		if err := attachUnits(&rep, defs, vals); err == nil {
			t.Errorf("attachUnits accepted %v against %v", vals, defs)
		}
	}
}

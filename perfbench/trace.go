package main

import (
	"context"
	"encoding/json"
	"strconv"

	"dpreverser/internal/align"
	"dpreverser/internal/colstore"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/telemetry"
)

// tracedReverser is a Reverser whose public progress events become spans
// on the benchmark's clock: one per stage under the current call's parent,
// and one lane per stream under the infer stage. It is built once and
// serves one Reverse call at a time; the Reverser serialises progress
// calls within a call, so the maps need no lock.
type tracedReverser struct {
	rv      *reverser.Reverser
	parent  *telemetry.Span
	stages  map[string]*telemetry.Span
	streams map[reverser.StreamKey]*telemetry.Span
}

func newTracedReverser(opts []reverser.Option) *tracedReverser {
	t := &tracedReverser{
		stages:  map[string]*telemetry.Span{},
		streams: map[reverser.StreamKey]*telemetry.Span{},
	}
	t.rv = reverser.New(append(append([]reverser.Option(nil), opts...), reverser.WithProgress(t.event))...)
	return t
}

// reverse runs cap with its stage spans under parent.
func (t *tracedReverser) reverse(cap rig.Capture, parent *telemetry.Span) (*reverser.Result, error) {
	t.parent = parent
	clear(t.stages)
	clear(t.streams)
	return t.rv.Reverse(context.Background(), cap)
}

func (t *tracedReverser) event(ev reverser.ProgressEvent) {
	switch ev.Kind {
	case reverser.ProgressStageStart:
		t.stages[ev.Stage] = t.parent.Child("stage:" + ev.Stage)
	case reverser.ProgressStageDone:
		t.stages[ev.Stage].End()
	case reverser.ProgressStreamStart:
		t.streams[ev.Stream] = t.stages[ev.Stage].ChildLane("gp.stream")
	case reverser.ProgressStreamDone:
		t.streams[ev.Stream].End()
	}
}

// attributePipeline calls the pipeline layers directly on cap under root:
// columnar assembly, field extraction, clock alignment, a whole Reverse
// with stage spans when rv is non-nil, and result encoding of ref. It
// returns the heap KB the assembly and the encoding allocated.
func attributePipeline(cap rig.Capture, ref *reverser.Result, rv *tracedReverser, root *telemetry.Span) (assembleKB, encodeKB float64) {
	ctx := context.Background()
	var fr *colstore.Frames
	var msgs *colstore.Messages
	assembleKB = allocKB(func() {
		sp := root.Child("reverser.assemble")
		fr = reverser.FramesColumnar(cap.Frames)
		// The reference run assembled this capture without error.
		msgs, _, _ = reverser.AssembleColumnar(ctx, fr, nil)
		sp.End()
	})
	sp := root.Child("reverser.extract")
	reverser.ExtractFieldsColumnar(msgs)
	sp.End()
	sp = root.Child("align.offset")
	// A capture without OBD anchors fails alignment, as it does inside
	// Reverse; the cost is what is measured.
	_, _ = align.EstimateOffsetOBDColumnar(fr, cap.UIFrames)
	sp.End()
	if rv != nil {
		sp = root.Child("reverser.reverse")
		_, _ = rv.reverse(cap, sp) // its output is gated in the timed windows
		sp.End()
	}
	encodeKB = allocKB(func() {
		sp := root.Child("reverser.encode")
		_, _ = json.Marshal(ref) // encoded fine at set-up
		sp.End()
	})
	return assembleKB, encodeKB
}

// spanIndex groups a trace's spans for the per-layer reductions.
type spanIndex struct {
	kids   map[int64][]telemetry.SpanData
	byName map[string][]telemetry.SpanData
	self   map[int64]float64 // ms
}

func indexSpans(spans []telemetry.SpanData) spanIndex {
	ix := spanIndex{
		kids:   map[int64][]telemetry.SpanData{},
		byName: map[string][]telemetry.SpanData{},
		self:   map[int64]float64{},
	}
	for _, s := range spans {
		ix.kids[s.Parent] = append(ix.kids[s.Parent], s)
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
	}
	for id, d := range selfTimes(spans) {
		ix.self[id] = ms(d)
	}
	return ix
}

// durMS is a span's length in milliseconds.
func durMS(s telemetry.SpanData) float64 { return ms(s.End - s.Start) }

// medianDur is the median length of the spans named name.
func (ix spanIndex) medianDur(name string) float64 {
	var v []float64
	for _, s := range ix.byName[name] {
		v = append(v, durMS(s))
	}
	return median(v)
}

// attrInt reads an integer span attribute (0 when absent).
func attrInt(s telemetry.SpanData, key string) int {
	for _, a := range s.Attrs {
		if a.Key == key {
			n, _ := strconv.Atoi(a.Value)
			return n
		}
	}
	return 0
}

// servedPhases joins each traced served job's root span with its sample:
// client round trips from the spans, server phases from the snapshot.
// It also collects the ingest session lengths and per-frame times.
func servedPhases(ix spanIndex, traced []sample) (ph []phases, sessionMS, frameUS []float64) {
	bySeq := map[int]sample{}
	for _, s := range traced {
		bySeq[s.Seq] = s
	}
	for _, root := range ix.byName["job"] {
		smp, ok := bySeq[attrInt(root, "seq")]
		if !ok || smp.Failed || !smp.OK {
			continue
		}
		p := phases{LatencyMS: durMS(root), QueueWaitMS: smp.QueueWaitMS, RunMS: smp.RunMS, StageMS: smp.StageMS}
		served := false
		for _, k := range ix.kids[root.ID] {
			switch k.Name {
			case "jobserver.submit", "jobserver.register":
				p.SubmitMS += durMS(k)
			case "jobserver.result":
				p.ResultMS += durMS(k)
				served = true
			case "canbridge.session":
				sessionMS = append(sessionMS, durMS(k))
				for _, g := range ix.kids[k.ID] {
					if n := attrInt(g, "frames"); g.Name == "canbridge.send" && n > 0 {
						frameUS = append(frameUS, 1e3*durMS(g)/float64(n))
					}
				}
			}
		}
		if served {
			ph = append(ph, p)
		}
	}
	return ph, sessionMS, frameUS
}

// layerMetrics computes the traced run's per-layer metrics from its
// spans, the attribution pass's readings, and the set-up exact counts. A
// layer the workload never calls reads 0.
func layerMetrics(fx fixture, plain, traced window, spans []telemetry.SpanData, calls []attributed) (map[string]float64, error) {
	vals := map[string]float64{}
	set := func(name string, v float64) { vals[name] = v }
	ix := indexSpans(spans)

	// Served jobs: the median band's phase split, which sums to its
	// latency by construction (all 0 on batch-full, which has none).
	ph, sessionMS, frameUS := servedPhases(ix, traced.Samples)
	m := meanPhases(medianBand(ph))
	set("jobserver.latency_ms", m.LatencyMS)
	set("jobserver.submit_ms", m.SubmitMS)
	set("jobserver.queue_wait_ms", m.QueueWaitMS)
	set("jobserver.run_ms", m.RunMS)
	set("jobserver.result_ms", m.ResultMS)
	set("jobserver.run_overhead_ms", m.runOverheadMS())
	set("jobserver.delivery_ms", m.deliveryMS())
	rejections := 0
	for _, w := range []window{plain, traced} {
		for _, s := range w.Samples {
			rejections += s.Rejections
		}
	}
	set("jobserver.rejections", float64(rejections))
	set("canbridge.session_ms", median(sessionMS))
	set("canbridge.frame_us", median(frameUS))

	// Direct layer calls of the attribution pass.
	var readKB, assembleKB, encodeKB []float64
	findings := 0
	for _, a := range calls {
		readKB = append(readKB, a.ReadKB)
		assembleKB = append(assembleKB, a.AssembleKB)
		encodeKB = append(encodeKB, a.EncodeKB)
		findings += a.Findings
	}
	set("rig.read_capture_ms", ix.medianDur("rig.read_capture"))
	set("rig.read_capture_kb", median(readKB))
	set("reverser.screen_ms", ix.medianDur("reverser.screen"))
	set("reverser.attack_findings", float64(findings))
	set("reverser.assemble_ms", ix.medianDur("reverser.assemble"))
	set("reverser.assemble_kb", median(assembleKB))
	set("reverser.extract_ms", ix.medianDur("reverser.extract"))
	set("align.offset_ms", ix.medianDur("align.offset"))
	set("reverser.encode_ms", ix.medianDur("reverser.encode"))
	set("reverser.encode_kb", median(encodeKB))

	// Stage boundaries of whole Reverse calls, from progress events.
	set("reverser.streams_ms", ix.medianDur("stage:streams"))
	set("reverser.infer_ms", ix.medianDur("stage:infer"))
	set("reverser.controls_ms", ix.medianDur("stage:controls"))
	var runSelf []float64
	for _, s := range ix.byName["reverser.reverse"] {
		runSelf = append(runSelf, ix.self[s.ID])
	}
	set("reverser.run_self_ms", median(runSelf))

	// GP: per-stream inference inside the worker pool.
	var streamMS, slowest []float64
	var busy, wall float64
	for _, inf := range ix.byName["stage:infer"] {
		longest := 0.0
		for _, k := range ix.kids[inf.ID] {
			d := durMS(k)
			streamMS = append(streamMS, d)
			busy += d
			longest = max(longest, d)
		}
		if w := durMS(inf); w > 0 && longest > 0 {
			wall += w
			slowest = append(slowest, longest/w)
		}
	}
	var p50, p90, parallelism float64
	if len(streamMS) > 0 {
		var err error
		if p50, err = percentile(streamMS, 0.5); err != nil {
			return nil, err
		}
		if p90, err = percentile(streamMS, 0.9); err != nil {
			return nil, err
		}
		if wall > 0 {
			parallelism = busy / wall
		}
	}
	set("gp.stream_p50_ms", p50)
	set("gp.stream_p90_ms", p90)
	set("gp.pool_parallelism", parallelism)
	set("gp.slowest_stream_share", median(slowest))
	ref := fx.reference()
	set("gp.evaluations_per_job", float64(ref.Evals)/float64(fx.size()))
	hitRatio := 0.0
	if ref.Evals > 0 {
		hitRatio = float64(ref.Hits) / float64(ref.Evals)
	}
	set("gp.cache_hit_ratio", hitRatio)
	set("reverser.degraded_streams", float64(ref.Degraded))

	set("trace.jobs_per_s", traced.jobsPerS())
	set("trace.overhead_pct", 100*(plain.jobsPerS()-traced.jobsPerS())/plain.jobsPerS())
	return vals, nil
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dpreverser/internal/telemetry"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile; a percentile resting on fewer is refused.
const minBeyond = 10

// minSamplesFor is the smallest sample count that leaves minBeyond
// samples beyond percentile q.
func minSamplesFor(q float64) int {
	for n := 1; ; n++ {
		if n-rank(n, q) >= minBeyond {
			return n
		}
	}
}

// rank is the 1-based nearest-rank position of percentile q in n sorted
// samples. The epsilon keeps float error in q·n (0.9·100 reads
// 90.00000000000001) from pushing the rank up by one.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(n, r))
}

// percentile reads the nearest-rank percentile q (0 < q < 1) of samples.
// It refuses when fewer than minBeyond samples lie beyond it, so a p90
// never rests on the last handful of points.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", q*100)
	}
	r := rank(n, q)
	if beyond := n - r; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples leaves %d beyond it, need %d",
			q*100, n, beyond, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[r-1], nil
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phases is one served job's latency split. The client-side parts come
// from the benchmark's spans around each round trip, the server-side parts
// from the job snapshot.
type phases struct {
	LatencyMS   float64 // first submission byte → result body received
	SubmitMS    float64 // submission round trip (upload or stream registration)
	QueueWaitMS float64 // snapshot queue_wait_ms
	RunMS       float64 // snapshot run_ms
	ResultMS    float64 // result fetch round trip
	StageMS     float64 // sum of stage elapsed_ms in the job's own events
}

// deliveryMS is the part of the client latency no server clock or client
// round trip accounts for: the long-poll wake-up plus whatever is still
// unattributed.
func (p phases) deliveryMS() float64 {
	return p.LatencyMS - p.SubmitMS - p.QueueWaitMS - p.RunMS - p.ResultMS
}

// runOverheadMS is the part of run_ms outside the pipeline's own stages.
func (p phases) runOverheadMS() float64 { return p.RunMS - p.StageMS }

// medianBand returns the samples whose latency lies in the middle decile
// (45th to 55th percentile by rank, at least one sample). Means over the
// band add up exactly, so the phase split of the band sums to its
// latency, which sits at the median.
func medianBand(all []phases) []phases {
	if len(all) == 0 {
		return nil
	}
	sorted := append([]phases(nil), all...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].LatencyMS < sorted[j].LatencyMS })
	lo := rank(len(sorted), 0.45) - 1
	hi := rank(len(sorted), 0.55)
	return sorted[lo:hi]
}

// meanPhases averages each field over ps.
func meanPhases(ps []phases) phases {
	var m phases
	if len(ps) == 0 {
		return m
	}
	for _, p := range ps {
		m.LatencyMS += p.LatencyMS
		m.SubmitMS += p.SubmitMS
		m.QueueWaitMS += p.QueueWaitMS
		m.RunMS += p.RunMS
		m.ResultMS += p.ResultMS
		m.StageMS += p.StageMS
	}
	n := float64(len(ps))
	m.LatencyMS /= n
	m.SubmitMS /= n
	m.QueueWaitMS /= n
	m.RunMS /= n
	m.ResultMS /= n
	m.StageMS /= n
	return m
}

// selfTimes derives each span's self time: its duration minus the part
// of its interval covered by its children. Children running concurrently
// (per-stream inference lanes) are merged first, so overlap is counted
// once and a child reaching outside its parent is clipped.
func selfTimes(spans []telemetry.SpanData) map[int64]time.Duration {
	children := map[int64][]telemetry.SpanData{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [start, end) covered by the union of kids.
func covered(start, end time.Duration, kids []telemetry.SpanData) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

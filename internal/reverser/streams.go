package reverser

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dpreverser/internal/align"
	"dpreverser/internal/colstore"
	"dpreverser/internal/gp"
	"dpreverser/internal/ocr"
	"dpreverser/internal/scaling"
)

// StreamData is the fully prepared per-stream material the inference step
// consumes: the recovered semantics and the paired, filtered, aggregated
// (X, Y) dataset. Exposing it lets the experiment harness run alternative
// inference algorithms (linear regression, polynomial fitting) on exactly
// the data GP sees — the §4.4 comparison.
type StreamData struct {
	Key   StreamKey
	Label string
	Unit  string
	// Enum marks state streams (no dataset).
	Enum bool
	// RawPairs counts pairs before aggregation (after outlier screening).
	RawPairs int
	// RejectedPairs counts paired samples the robust median-residual
	// screen rejected before aggregation; non-zero values surface on
	// Result.Degraded as pairing-stage damage.
	RejectedPairs int
	// Dataset is the cleaned, aggregated inference input (nil for enums
	// and under-sampled streams) — what DP-Reverser's GP consumes.
	Dataset *gp.Dataset
	// RawDataset holds the unfiltered, unaggregated pairs: X observations
	// matched to raw OCR samples with no outlier rejection. The §4.4
	// baseline comparison runs linear regression and polynomial fitting on
	// this, since the two-stage filtering is part of DP-Reverser, not of
	// the LibreCAN-style baselines.
	RawDataset *gp.Dataset
}

// alignUI estimates the camera-to-CAN clock offset (§3.3) and returns the
// UI frames shifted onto the traffic clock. Captures with no usable OBD
// anchors keep their raw timestamps and a zero offset.
func alignUI(fr *colstore.Frames, uiFrames []ocr.Frame) (time.Duration, []ocr.Frame) {
	if off, err := align.EstimateOffsetOBDColumnar(fr, uiFrames); err == nil {
		return off, align.ApplyOffset(uiFrames, off)
	}
	return 0, uiFrames
}

// streamsFromExtraction builds the per-stream datasets from an already
// extracted capture: session splitting, semantics, pairing, filtering and
// aggregation, one StreamData per observed stream.
func streamsFromExtraction(ext *Extraction, uiFrames []ocr.Frame, cfg Config) []StreamData {
	var out []StreamData
	for _, sess := range splitSessions(uiFrames) {
		keys, inSession := sessionStreams(ext.ESVs, sess)
		for rowIdx, key := range keys {
			out = append(out, buildStreamData(key, rowIdx, inSession[key], sess, cfg))
		}
	}
	return out
}

// sessionStreams lists the streams active in a session in display-row
// order, recovered robustly from damaged traffic in two steps:
//
//  1. Streams with far fewer observations than the session's typical
//     stream are dropped as phantoms — a bit-flipped identifier field
//     yields a "stream" that was never on screen, and keeping it would
//     shift the row pairing of every stream after it.
//  2. Row order is majority-voted across poll cycles rather than taken
//     from first-seen order alone: the tool polls its identifiers
//     round-robin, so each cycle restates the on-screen order, and a
//     response lost at the session head (which rotates first-seen order)
//     is outvoted by the intact cycles that follow.
//
// On a clean capture every cycle agrees with first-seen order and both
// steps are no-ops.
func sessionStreams(obs []ESVObservation, sess session) ([]StreamKey, map[StreamKey][]ESVObservation) {
	var keys []StreamKey
	var sessObs []ESVObservation
	seen := map[StreamKey]bool{}
	inSession := map[StreamKey][]ESVObservation{}
	for _, o := range obs {
		if o.At < sess.start-time.Second || o.At > sess.end+time.Second {
			continue
		}
		if (o.Key.Proto == "OBD") != (sess.screenName == "obd-live") {
			continue
		}
		if !seen[o.Key] {
			seen[o.Key] = true
			keys = append(keys, o.Key)
		}
		sessObs = append(sessObs, o)
		inSession[o.Key] = append(inSession[o.Key], o)
	}
	if len(keys) > 1 {
		counts := make([]float64, len(keys))
		for i, k := range keys {
			counts[i] = float64(len(inSession[k]))
		}
		med := medianOf(counts)
		kept := keys[:0]
		for _, k := range keys {
			if float64(len(inSession[k]))*5 < med {
				delete(inSession, k)
				continue
			}
			kept = append(kept, k)
		}
		keys = kept
		keys = voteRowOrder(keys, sessObs, inSession)
	}
	return keys, inSession
}

// voteRowOrder reorders keys into the display-row order the poll cycles
// agree on. Cycle boundaries are temporal: the tool answers a whole
// screenful back-to-back, then idles until its next refresh, so a gap
// well above the typical inter-observation spacing separates cycles. (A
// key repeating within a cycle also cuts, as a fallback for degenerate
// spacing.) Each cycle votes for the position of every key it contains,
// and keys are ranked by their modal position, first-seen order breaking
// ties. Cutting on time rather than on first-seen repetition matters:
// responses missing from the capture at the session head would rotate
// every repeat-cut cycle in unison, and the vote would ratify the
// rotation instead of repairing it.
func voteRowOrder(keys []StreamKey, sessObs []ESVObservation, inSession map[StreamKey][]ESVObservation) []StreamKey {
	firstSeen := make(map[StreamKey]int, len(keys))
	for i, k := range keys {
		firstSeen[k] = i
	}
	var kept []ESVObservation
	for _, o := range sessObs {
		if _, ok := inSession[o.Key]; ok { // drop phantoms
			kept = append(kept, o)
		}
	}
	var gaps []float64
	for i := 1; i < len(kept); i++ {
		gaps = append(gaps, float64(kept[i].At-kept[i-1].At))
	}
	// A whole screenful shares (nearly) one poll-tick timestamp, so the
	// median gap is (close to) zero and any clearly larger gap is a
	// refresh boundary. When spacing is uniform instead (one identifier
	// per tick), no gap qualifies and the repeat-cut below decides.
	cycleGap := time.Duration(3 * medianOf(gaps))
	votes := make(map[StreamKey]map[int]int, len(keys))
	pos := 0
	cycleSeen := map[StreamKey]bool{}
	for i, o := range kept {
		tempCut := i > 0 && o.At-kept[i-1].At > cycleGap
		if tempCut || cycleSeen[o.Key] {
			pos = 0
			cycleSeen = map[StreamKey]bool{}
		}
		cycleSeen[o.Key] = true
		if votes[o.Key] == nil {
			votes[o.Key] = map[int]int{}
		}
		votes[o.Key][pos]++
		pos++
	}
	rank := make(map[StreamKey]int, len(keys))
	for _, k := range keys {
		best, bestN := firstSeen[k], 0
		for p, n := range votes[k] {
			if n > bestN || (n == bestN && p < best) {
				best, bestN = p, n
			}
		}
		rank[k] = best
	}
	ordered := append([]StreamKey(nil), keys...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if rank[ordered[i]] != rank[ordered[j]] {
			return rank[ordered[i]] < rank[ordered[j]]
		}
		return firstSeen[ordered[i]] < firstSeen[ordered[j]]
	})
	return ordered
}

// buildStreamData performs §3.3/§3.4 and §3.5 Step 1 for one stream.
func buildStreamData(key StreamKey, rowIdx int, obs []ESVObservation, sess session, cfg Config) StreamData {
	sd := StreamData{Key: key}

	labelVotes := map[string]int{}
	unitVotes := map[string]int{}
	var ySamples []ocr.Sample
	numericRows, textRows := 0, 0
	for _, f := range sess.frames {
		for _, row := range f.Rows {
			if row.Index != rowIdx {
				continue
			}
			if row.Label != "" {
				labelVotes[row.Label]++
			}
			if row.Unit != "" {
				unitVotes[row.Unit]++
			}
			if row.ParseOK {
				numericRows++
				ySamples = append(ySamples, ocr.Sample{At: f.At, Value: row.Parsed})
			} else if row.Value != "" {
				textRows++
			}
		}
	}
	sd.Label = majority(labelVotes)
	sd.Unit = majority(unitVotes)

	if textRows > numericRows {
		sd.Enum = true
		return sd
	}

	rawSamples := ySamples
	min, max := rangeForLabel(sd.Label)
	ySamples = ocr.Filter(ySamples, min, max)

	pair := func(samples []ocr.Sample) ([][]float64, []float64) {
		maxGap := cfg.PairMaxGap
		if spacing := typicalSpacing(samples); spacing > 0 && spacing*3/5 < maxGap {
			maxGap = spacing * 3 / 5
		}
		var xs [][]float64
		var ys []float64
		for _, o := range obs {
			vars := o.Variables()
			if vars == nil {
				continue
			}
			y, ok := nearestSample(samples, o.At, maxGap)
			if !ok {
				continue
			}
			xs = append(xs, vars)
			ys = append(ys, y)
		}
		return xs, ys
	}

	pairsX, pairsY := pair(ySamples)
	pairsX, pairsY, sd.RejectedPairs = screenPairs(pairsX, pairsY)
	sd.RawPairs = len(pairsY)
	if sd.RawPairs < cfg.MinPairs {
		return sd
	}
	// Even a single distinct X is inferable: the constant formula is
	// exactly right over the observed domain (the paper's collapsed-
	// variable cases are the same phenomenon).
	sd.Dataset = aggregateByX(pairsX, pairsY)

	rawX, rawY := pair(rawSamples)
	if len(rawY) > 0 {
		sd.RawDataset = &gp.Dataset{X: rawX, Y: rawY}
	}
	return sd
}

// screenPairs rejects paired samples whose Y is wildly inconsistent with
// other observations of the same X vector — the signature of OCR damage
// (a dropped decimal point multiplies by 100, a flipped sign doubles the
// distance) surviving the per-sample range filter. The residual of each
// pair against its X-group's median Y should be near zero, since identical
// raw bytes decode to identical displayed values; pairs whose residual
// exceeds a robust tolerance (scaled MAD with a floor proportional to the
// stream's magnitude) are dropped before aggregation. The screen is
// order-preserving and deterministic, and backs off entirely when it would
// reject more than half the data — at that point the residuals, not the
// pairs, are untrustworthy.
func screenPairs(xs [][]float64, ys []float64) ([][]float64, []float64, int) {
	if len(ys) < 4 {
		return xs, ys, 0
	}
	groupMed := map[string]float64{}
	keys := make([]string, len(xs))
	{
		groups := map[string][]float64{}
		for i, x := range xs {
			keys[i] = fmt.Sprintf("%v", x)
			groups[keys[i]] = append(groups[keys[i]], ys[i])
		}
		for k, vals := range groups {
			groupMed[k] = medianOf(vals)
		}
	}
	residuals := make([]float64, len(ys))
	absRes := make([]float64, len(ys))
	var absYs []float64
	for i, y := range ys {
		residuals[i] = y - groupMed[keys[i]]
		absRes[i] = abs(residuals[i])
		absYs = append(absYs, abs(y))
	}
	mad := medianOf(absRes)
	scale := medianOf(absYs)
	tol := 8 * mad
	if floor := 0.05*scale + 1; tol < floor {
		tol = floor
	}
	rejected := 0
	for i := range ys {
		if absRes[i] > tol {
			rejected++
		}
	}
	if rejected == 0 {
		return xs, ys, 0
	}
	if rejected*2 > len(residuals) {
		// Residuals this wide mean the groups themselves are noise; let
		// aggregation's per-group medians do what they can instead.
		return xs, ys, 0
	}
	keptX := make([][]float64, 0, len(xs)-rejected)
	keptY := make([]float64, 0, len(ys)-rejected)
	for i := range ys {
		if absRes[i] > tol {
			continue
		}
		keptX = append(keptX, xs[i])
		keptY = append(keptY, ys[i])
	}
	return keptX, keptY, rejected
}

// medianOf returns the median of vals without modifying the input.
func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// InferStream runs §3.5 Steps 2-3 (scaling + GP) on prepared stream data.
// The returned error is non-nil only when ctx was cancelled; inference
// failures on a single stream yield a formula-less ReversedESV instead, so
// one degenerate dataset cannot abort a whole capture.
func InferStream(ctx context.Context, sd StreamData, cfg Config) (ReversedESV, error) {
	rev := ReversedESV{Key: sd.Key, Label: sd.Label, Unit: sd.Unit, Enum: sd.Enum, Pairs: sd.RawPairs}
	if sd.Enum || sd.Dataset == nil {
		return rev, ctx.Err()
	}
	res, err := scaling.InferContext(ctx, sd.Dataset, cfg.GP)
	if err != nil {
		return rev, ctx.Err()
	}
	rev.Formula = res.Best
	rev.Fitness = res.Fitness
	rev.Generations = res.Generations
	rev.Evaluations = res.Evaluations
	rev.CacheHits = res.CacheHits
	rev.CacheMisses = res.CacheMisses
	return rev, nil
}

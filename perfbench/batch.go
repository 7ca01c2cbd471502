package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/telemetry"
)

// batchCar is one fixed job of batch-full: a full-duration capture and the
// result its first run produced.
type batchCar struct {
	name    string
	capture rig.Capture
	result  *reverser.Result
	ref     []byte
	truth   truthTable
}

// batchFixture is batch-full after set-up.
type batchFixture struct {
	rv *reverser.Reverser
	// traced runs the traced window's jobs with the same options.
	traced *tracedReverser
	clock  telemetry.Clock
	cars   []batchCar
	ref    exactCounts
}

// setupBatch simulates full-duration captures and runs each once at the
// paper's budget: that first run is the reference every later pass must
// reproduce.
func setupBatch(opt options) (fixture, error) {
	caps, err := simulateFleet(opt.Cars, false)
	if err != nil {
		return nil, err
	}
	defer closeCars(caps)
	fx := &batchFixture{
		rv:     reverser.New(paperOptions()...),
		traced: newTracedReverser(paperOptions()),
		clock:  telemetry.NewWallClock(),
	}
	for _, c := range caps {
		res, err := fx.rv.Reverse(context.Background(), c.Capture)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", c.Name, err)
		}
		ref, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		bc := batchCar{name: c.Name, capture: c.Capture, result: res, ref: ref, truth: resolveTruth(c.veh, res)}
		fx.cars = append(fx.cars, bc)
		fx.ref.add(formulasCorrect(res, bc.truth), res)
	}
	return fx, nil
}

func (fx *batchFixture) size() int              { return len(fx.cars) }
func (fx *batchFixture) clients() int           { return 1 }
func (fx *batchFixture) reference() exactCounts { return fx.ref }
func (fx *batchFixture) reset() error           { return nil }
func (fx *batchFixture) close()                 {}

// job reverse engineers car's capture in-process. The latency is the
// Reverse call; traced calls turn its progress events into stage spans.
func (fx *batchFixture) job(seq, car int, tr *telemetry.Tracer) sample {
	c := &fx.cars[car]
	root := tr.Start("job", telemetry.Int("seq", seq), telemetry.String("car", c.name))
	sp := root.Child("reverser.reverse")
	var res *reverser.Result
	var err error
	start := fx.clock.Now()
	if tr != nil {
		res, err = fx.traced.reverse(c.capture, sp)
	} else {
		res, err = fx.rv.Reverse(context.Background(), c.capture)
	}
	lat := fx.clock.Now() - start
	sp.End()
	root.End()
	return sample{Seq: seq, Car: car, Latency: lat, Result: res, Failed: err != nil}
}

// finish gates the window's kept results against the first run, counts
// their formulas against ground truth, and releases them.
func (fx *batchFixture) finish(samples []sample) {
	for i := range samples {
		s := &samples[i]
		if s.Failed {
			continue
		}
		c := &fx.cars[s.Car]
		if got, err := json.Marshal(s.Result); err == nil && bytes.Equal(got, c.ref) {
			s.OK = true
			s.Correct = formulasCorrect(s.Result, c.truth)
			s.Evals = s.Result.Evaluations
		}
		s.Result = nil
	}
}

// attribute runs the pipeline's front layers and the encoder directly;
// the stage split comes from the traced window's own Reverse calls.
func (fx *batchFixture) attribute(car int, root *telemetry.Span) attributed {
	c := &fx.cars[car]
	var a attributed
	a.AssembleKB, a.EncodeKB = attributePipeline(c.capture, c.result, nil, root)
	return a
}

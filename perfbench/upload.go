package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/telemetry"
)

// uploadCar is one fixed job of serve-upload: the capture body a
// workstation uploads and the result the server must return.
type uploadCar struct {
	name    string
	body    []byte
	capture rig.Capture // the body as the server decodes it
	result  *reverser.Result
	ref     []byte
	correct int
}

// uploadFixture is serve-upload after set-up.
type uploadFixture struct {
	srv  *server
	cars []uploadCar
	ref  exactCounts
	// traced runs the attribution pass's Reverse calls.
	traced *tracedReverser
}

// setupUpload simulates quick-rig captures, encodes the upload bodies,
// computes each reference result in-process with the server's options,
// and starts the server.
func setupUpload(opt options) (fixture, error) {
	caps, err := simulateFleet(opt.Cars, true)
	if err != nil {
		return nil, err
	}
	defer closeCars(caps)
	fx := &uploadFixture{traced: newTracedReverser(quickOptions())}
	for _, c := range caps {
		var body bytes.Buffer
		if err := c.Capture.Save(&body); err != nil {
			return nil, err
		}
		decoded, err := rig.ReadCapture(bytes.NewReader(body.Bytes()))
		if err != nil {
			return nil, err
		}
		res, err := reverser.New(quickOptions()...).Reverse(context.Background(), decoded)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", c.Name, err)
		}
		ref, err := referenceBody(res)
		if err != nil {
			return nil, err
		}
		uc := uploadCar{
			name: c.Name, body: body.Bytes(), capture: decoded, result: res, ref: ref,
			correct: formulasCorrect(res, resolveTruth(c.veh, res)),
		}
		fx.cars = append(fx.cars, uc)
		fx.ref.add(uc.correct, res)
	}
	if fx.srv, err = startServer(false); err != nil {
		return nil, err
	}
	return fx, nil
}

func (fx *uploadFixture) size() int              { return len(fx.cars) }
func (fx *uploadFixture) clients() int           { return nproc() }
func (fx *uploadFixture) reference() exactCounts { return fx.ref }

// reset replaces the server, dropping the finished jobs it keeps.
func (fx *uploadFixture) reset() error {
	fx.srv.close()
	srv, err := startServer(false)
	if err != nil {
		return err
	}
	fx.srv = srv
	return nil
}

func (fx *uploadFixture) close() { fx.srv.close() }

func (fx *uploadFixture) finish(samples []sample) { fx.srv.snapshots(samples) }

// job uploads car's capture, long-polls the job to completion and fetches
// its result.
func (fx *uploadFixture) job(seq, car int, tr *telemetry.Tracer) sample {
	c := &fx.cars[car]
	smp := sample{Seq: seq, Car: car}
	root := tr.Start("job", telemetry.Int("seq", seq), telemetry.String("car", c.name))
	start := fx.srv.clock.Now()
	sp := root.Child("jobserver.submit")
	code, raw, err := fx.srv.call(http.MethodPost, "/api/v1/jobs?tenant="+tenantFor(seq), "application/json", c.body)
	sp.End()
	var snap struct {
		ID string `json:"id"`
	}
	if err != nil || code != http.StatusAccepted || json.Unmarshal(raw, &snap) != nil {
		if refused(code) {
			smp.Rejections++
		}
		smp.Failed = true
		root.End()
		return smp
	}
	return fx.srv.finishJob(smp, snap.ID, start, root, c.ref, c.correct, c.result.Evaluations)
}

// attribute decodes the upload body and runs the pipeline layers directly.
func (fx *uploadFixture) attribute(car int, root *telemetry.Span) attributed {
	c := &fx.cars[car]
	var a attributed
	a.ReadKB = allocKB(func() {
		sp := root.Child("rig.read_capture")
		_, _ = rig.ReadCapture(bytes.NewReader(c.body)) // decoded fine at set-up
		sp.End()
	})
	a.AssembleKB, a.EncodeKB = attributePipeline(c.capture, c.result, fx.traced, root)
	return a
}

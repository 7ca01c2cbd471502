package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/canbridge"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/telemetry"
)

// streamOp is one step of a replayed ingest session: an optional ADVANCE
// of the session clock, then one SEND.
type streamOp struct {
	advance time.Duration
	frame   can.Frame
}

// streamCar is one fixed job of serve-stream: the session a workstation
// replays and the result the server must return.
type streamCar struct {
	name string
	ops  []streamOp
	// capture is the capture exactly as the session stamps it.
	capture rig.Capture
	result  *reverser.Result
	ref     []byte
}

// streamFixture is serve-stream after set-up.
type streamFixture struct {
	srv  *server
	cars []streamCar
	ref  exactCounts
	// traced runs the attribution pass's Reverse calls.
	traced *tracedReverser
}

// sessionOps turns a capture's frames into the session that replays its
// timeline, and returns the frames as the ingest side stamps them: the
// wire carries whole milliseconds of ADVANCE and no timestamps, so the
// stamps are the session clock rounded down.
func sessionOps(frames []can.Frame) ([]streamOp, []can.Frame, error) {
	ops := make([]streamOp, 0, len(frames))
	stamped := make([]can.Frame, 0, len(frames))
	var now time.Duration
	for _, f := range frames {
		op := streamOp{frame: f}
		if d := f.Timestamp - now; d > 0 {
			msg, err := canbridge.Parse(canbridge.Format(canbridge.MsgAdvance{D: d}))
			if err != nil {
				return nil, nil, err
			}
			op.advance = msg.(canbridge.MsgAdvance).D
			now += op.advance
		}
		msg, err := canbridge.Parse(canbridge.Format(canbridge.MsgSend{Frame: f}))
		if err != nil {
			return nil, nil, err
		}
		sf := msg.(canbridge.MsgSend).Frame
		sf.Timestamp = now
		ops = append(ops, op)
		stamped = append(stamped, sf)
	}
	return ops, stamped, nil
}

// setupStream simulates quick-rig captures, derives each ingest session
// and the capture it stamps, computes the reference result in-process
// with the server's options, and starts the server with ingest.
func setupStream(opt options) (fixture, error) {
	caps, err := simulateFleet(opt.Cars, true)
	if err != nil {
		return nil, err
	}
	defer closeCars(caps)
	fx := &streamFixture{traced: newTracedReverser(quickOptions())}
	for _, c := range caps {
		ops, stamped, err := sessionOps(c.Capture.Frames)
		if err != nil {
			return nil, err
		}
		capture := rig.Capture{Car: c.Name, Frames: stamped}
		if f := reverser.ScreenFrames(stamped); len(f) > 0 {
			return nil, fmt.Errorf("%s: admission screening flags clean traffic: %v", c.Name, f)
		}
		res, err := reverser.New(quickOptions()...).Reverse(context.Background(), capture)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", c.Name, err)
		}
		ref, err := referenceBody(res)
		if err != nil {
			return nil, err
		}
		fx.cars = append(fx.cars, streamCar{name: c.Name, ops: ops, capture: capture, result: res, ref: ref})
		// Streamed captures carry no UI frames and so yield no formulas;
		// the exact count here is the assembled messages.
		fx.ref.add(res.Messages, res)
	}
	if fx.srv, err = startServer(true); err != nil {
		return nil, err
	}
	return fx, nil
}

func (fx *streamFixture) size() int              { return len(fx.cars) }
func (fx *streamFixture) clients() int           { return nproc() }
func (fx *streamFixture) reference() exactCounts { return fx.ref }

// reset replaces the server, dropping the finished jobs it keeps.
func (fx *streamFixture) reset() error {
	fx.srv.close()
	srv, err := startServer(true)
	if err != nil {
		return err
	}
	fx.srv = srv
	return nil
}

func (fx *streamFixture) close() { fx.srv.close() }

func (fx *streamFixture) finish(samples []sample) { fx.srv.snapshots(samples) }

// job registers a stream, replays car's session over canbridge, closes it,
// then long-polls the job to completion and fetches its result.
func (fx *streamFixture) job(seq, car int, tr *telemetry.Tracer) sample {
	c := &fx.cars[car]
	smp := sample{Seq: seq, Car: car}
	root := tr.Start("job", telemetry.Int("seq", seq), telemetry.String("car", c.name))
	start := fx.srv.clock.Now()
	sp := root.Child("jobserver.register")
	code, raw, err := fx.srv.call(http.MethodPost,
		"/api/v1/streams?tenant="+tenantFor(seq)+"&car="+url.QueryEscape(c.name), "", nil)
	sp.End()
	var reg struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
		Token string `json:"token"`
	}
	if err != nil || code != http.StatusCreated || json.Unmarshal(raw, &reg) != nil {
		if refused(code) {
			smp.Rejections++
		}
		smp.Failed = true
		root.End()
		return smp
	}
	sp = root.Child("canbridge.session")
	err = fx.replay(c, reg.Token, sp)
	sp.End()
	if err != nil {
		smp.Failed = true
		root.End()
		return smp
	}
	return fx.srv.finishJob(smp, reg.Job.ID, start, root, c.ref, c.result.Messages, c.result.Evaluations)
}

// replay streams one session: every SEND (and ADVANCE) waits for the
// server's OK, and Close finalises the capture.
func (fx *streamFixture) replay(c *streamCar, token string, session *telemetry.Span) error {
	conn, err := canbridge.DialStream(fx.srv.ingest, token)
	if err != nil {
		return err
	}
	sp := session.Child("canbridge.send", telemetry.Int("frames", len(c.ops)))
	for _, op := range c.ops {
		if op.advance > 0 {
			err = conn.Advance(op.advance)
		}
		if err == nil {
			err = conn.Send(op.frame)
		}
		if err != nil {
			conn.Close()
			return err
		}
	}
	sp.End()
	return conn.Close()
}

// attribute screens the stamped capture and runs the pipeline layers
// directly.
func (fx *streamFixture) attribute(car int, root *telemetry.Span) attributed {
	c := &fx.cars[car]
	var a attributed
	sp := root.Child("reverser.screen")
	a.Findings = len(reverser.ScreenFrames(c.capture.Frames))
	sp.End()
	a.AssembleKB, a.EncodeKB = attributePipeline(c.capture, c.result, fx.traced, root)
	return a
}

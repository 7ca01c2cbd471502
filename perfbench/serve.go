package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dpreverser/internal/jobserver"
	"dpreverser/internal/reverser"
	"dpreverser/internal/telemetry"
)

// tenants is how many tenants the served jobs rotate over.
const tenants = 3

// maxIdlePolls bounds consecutive empty 5-second long-polls before a job
// counts as never finished.
const maxIdlePolls = 6

// server is an in-process jobserver behind real loopback HTTP, configured
// like `dpreversed -quick`.
type server struct {
	srv    *jobserver.Server
	ref    *handlerRef
	hs     *http.Server
	served chan struct{}
	base   string
	ingest string
	client *http.Client
	clock  telemetry.Clock
}

// startServer boots the job server (plus its canbridge ingest listener
// when ingest is set) and the HTTP client the benchmark's clients share.
func startServer(ingest bool) (*server, error) {
	cfg := jobserver.DefaultConfig()
	cfg.Reverser = quickOptions()
	srv := jobserver.New(cfg, telemetry.New(nil))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ref := &handlerRef{}
	h := srv.Handler()
	ref.h.Store(&h)
	s := &server{
		srv:    srv,
		ref:    ref,
		hs:     &http.Server{Handler: ref},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * nproc()}},
		clock:  telemetry.NewWallClock(),
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if ingest {
		addr, err := srv.ServeIngest("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.ingest = addr
	}
	return s, nil
}

// close stops the listener, the job server and the idle client
// connections, waits for the serve goroutine, and detaches the job server
// from the closed http.Server.
func (s *server) close() {
	s.hs.Close()
	s.srv.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.ref.h.Store(nil)
}

// handlerRef forwards requests to the job server's handler until it is
// cleared. A long-poll's timeout timer keeps the request context, and
// with it the http.Server, reachable for up to the poll's wait after the
// handler returns. Clearing the reference lets a closed job server be
// collected at once, so the next segment's heap reading starts without
// it.
type handlerRef struct{ h atomic.Pointer[http.Handler] }

func (r *handlerRef) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	h := r.h.Load()
	if h == nil {
		http.Error(w, "server closed", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, req)
}

// call makes one request and reads the whole response body.
func (s *server) call(method, path, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// eventsDoc is the part of the events endpoint's document the client
// reads.
type eventsDoc struct {
	State  string `json:"state"`
	Events []struct {
		Kind      string  `json:"kind"`
		ElapsedMS float64 `json:"elapsed_ms"`
	} `json:"events"`
}

// outcome is what the client learned about one job.
type outcome struct {
	state   string
	result  []byte
	stageMS float64
	err     error
}

// await long-polls job id to a terminal state, then fetches its result.
// Each round trip is a span under root.
func (s *server) await(id string, root *telemetry.Span) outcome {
	var out outcome
	after, idle := 0, 0
	for {
		sp := root.Child("jobserver.poll")
		code, raw, err := s.call(http.MethodGet,
			"/api/v1/jobs/"+id+"/events?after="+strconv.Itoa(after)+"&wait=5s", "", nil)
		sp.End()
		if err != nil || code != http.StatusOK {
			out.err = fmt.Errorf("events for %s: %d %v", id, code, err)
			return out
		}
		var ev eventsDoc
		if err := json.Unmarshal(raw, &ev); err != nil {
			out.err = fmt.Errorf("events for %s: %w", id, err)
			return out
		}
		for _, e := range ev.Events {
			if e.Kind == "stage-done" {
				out.stageMS += e.ElapsedMS
			}
		}
		after += len(ev.Events)
		out.state = ev.State
		if ev.State == "done" || ev.State == "failed" || ev.State == "cancelled" {
			break
		}
		if len(ev.Events) == 0 {
			if idle++; idle >= maxIdlePolls {
				out.err = fmt.Errorf("job %s stuck in %s", id, ev.State)
				return out
			}
		} else {
			idle = 0
		}
	}
	sp := root.Child("jobserver.result")
	code, raw, err := s.call(http.MethodGet, "/api/v1/jobs/"+id+"/result", "", nil)
	sp.End()
	if err != nil || code != http.StatusOK {
		out.err = fmt.Errorf("result of %s (%s): %d %v", id, out.state, code, err)
		return out
	}
	out.result = raw
	return out
}

// snapshots reads the server-side phase clocks of the traced jobs among
// samples. It runs after a segment's timed part, before the server is
// replaced, so the extra round trips stay out of the closed loop.
func (s *server) snapshots(samples []sample) {
	for i := range samples {
		smp := &samples[i]
		if smp.JobID == "" || smp.Failed {
			continue
		}
		var snap struct {
			QueueWaitMS float64 `json:"queue_wait_ms"`
			RunMS       float64 `json:"run_ms"`
		}
		code, raw, err := s.call(http.MethodGet, "/api/v1/jobs/"+smp.JobID, "", nil)
		if err != nil || code != http.StatusOK || json.Unmarshal(raw, &snap) != nil {
			smp.Failed = true
			continue
		}
		smp.QueueWaitMS, smp.RunMS = snap.QueueWaitMS, snap.RunMS
	}
}

// refused reports a quota or backpressure answer.
func refused(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// referenceBody renders a result exactly as the result endpoint does: the
// schema-v1 document through an indenting encoder.
func referenceBody(res *reverser.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// tenantFor spreads jobs round-robin over the tenants.
func tenantFor(seq int) string { return "tenant-" + strconv.Itoa(seq%tenants) }

// finishJob waits for submitted job id and completes its sample: the
// latency runs from start to the result body, and the output gate
// compares that body with ref. correct and evals are ref's exact counts.
// Traced jobs keep their id for the phase-clock snapshot after the
// segment.
func (s *server) finishJob(smp sample, id string, start time.Duration, root *telemetry.Span, ref []byte, correct, evals int) sample {
	got := s.await(id, root)
	smp.Latency = s.clock.Now() - start
	root.End()
	smp.StageMS = got.stageMS
	switch {
	case got.err != nil || got.state != "done":
		smp.Failed = true
	case bytes.Equal(got.result, ref):
		smp.OK, smp.Correct, smp.Evals = true, correct, evals
	}
	if root != nil {
		smp.JobID = id
	}
	return smp
}

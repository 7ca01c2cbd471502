package jobserver

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"dpreverser/internal/rig"
)

// TestTenantResubmitsOnTerminal checks a job turns terminal only after
// its tenant slot is released: a tenant capped at one live job that
// resubmits the instant it sees its job end is never refused.
func TestTenantResubmitsOnTerminal(t *testing.T) {
	// The CAN frames alone keep each job to a few milliseconds (no video,
	// so no inference), so the loop crosses the end of many jobs.
	full := carMCapture(t)
	small := rig.Capture{Car: full.Car, Frames: full.Frames}
	srv := New(Config{TenantMaxActive: 1, Reverser: quickOpts()}, nil)
	defer srv.Close()
	for i := 0; i < 300; i++ {
		j, err := srv.Submit("acme", small, "")
		if err != nil {
			var rej *RejectionError
			if errors.As(err, &rej) {
				t.Fatalf("submission %d refused (%s) right after the previous job ended", i, rej.Reason)
			}
			t.Fatal(err)
		}
		// Spin on the state, as a polling client does, rather than wait
		// for the wake-up.
		for !j.State().Terminal() {
			runtime.Gosched()
		}
	}
}

// queueingRecorder queues live timers, due after the poll's deadline,
// while the handler writes its answer: the poll's timer is then neither
// first nor last in the timer queue, as on a busy server, and a stopped
// timer stays queued there until its deadline.
type queueingRecorder struct {
	*httptest.ResponseRecorder
	timers []*time.Timer
}

func (r *queueingRecorder) Write(b []byte) (int, error) {
	for i := 0; i < 64; i++ {
		r.timers = append(r.timers, time.AfterFunc(10*time.Second, func() {}))
	}
	return r.ResponseRecorder.Write(b)
}

// TestClosedServerCollectableAfterLongPoll checks a long-poll that has
// returned leaves nothing holding the server once it is closed, so the
// memory of its jobs is returned without waiting out the poll's wait. The
// finalizer sits on a job, which only the server reaches: one on the
// Server itself would never run, since the server reaches itself through
// its stream sessions.
func TestClosedServerCollectableAfterLongPoll(t *testing.T) {
	// One P holds every timer; live ones due before the poll's deadline
	// keep the queue's head busy.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 16; i++ {
		tm := time.AfterFunc(4*time.Second, func() {})
		defer tm.Stop()
	}
	rec := &queueingRecorder{ResponseRecorder: httptest.NewRecorder()}
	defer func() {
		for _, tm := range rec.timers {
			tm.Stop()
		}
	}()
	collected := make(chan struct{})
	func() {
		srv := New(Config{}, nil)
		defer srv.Close()
		reg, err := srv.RegisterStream("acme", "Car M", "")
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(reg.Job, func(*Job) { close(collected) })
		if err := srv.Cancel(reg.Job.ID); err != nil {
			t.Fatal(err)
		}
		// As net/http serves it: the request context carries the
		// http.Server, whose handler reaches this server.
		h := srv.Handler()
		ctx := context.WithValue(context.Background(), http.ServerContextKey, &http.Server{Handler: h})
		req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+reg.Job.ID+"/events?wait=5s", nil)
		h.ServeHTTP(rec, req.WithContext(ctx))
		if rec.Code != http.StatusOK {
			t.Fatalf("events: %d %s", rec.Code, rec.Body)
		}
	}()
	// Well inside the poll's 5 s wait, and with no timers of its own.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
			runtime.Gosched()
		}
	}
	t.Fatal("closed server still reachable after its long-poll returned")
}

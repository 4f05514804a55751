package server_test

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

func getHealthz(t *testing.T, admin *server.Admin) (code int, body map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	admin.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("healthz body %q: %v", rec.Body.String(), err)
	}
	return rec.Code, body
}

// TestHealthzAdmissionStates walks /healthz through the three
// admission-control states: serving (200), shedding (200 but
// "overloaded" — self-protection, not an outage), and draining (503, so
// load balancers stop routing before the data port closes).
func TestHealthzAdmissionStates(t *testing.T) {
	o := obs.New(0)
	// The card is aged so the cleaner starts behind and admission control
	// has something to shed about.
	card, err := core.NewServedCard(core.ServedCardConfig{
		System: core.SolidStateConfig{
			DRAMBytes:       4 << 20,
			FlashBytes:      8 << 20,
			BufferBytes:     256 << 10,
			RBoxBytes:       256 << 10,
			IdleCleanBlocks: 24,
			WriteBackDelay:  30 * sim.Second,
			Obs:             o,
		},
		AgeBytes: 7 << 20,
		Server:   server.Config{HighWatermark: 0.05, LowWatermark: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := card.Srv
	admin := server.NewAdmin(srv, o)

	code, body := getHealthz(t, admin)
	if code != 200 || body["state"] != "serving" || body["status"] != "ok" {
		t.Fatalf("fresh server: code %d body %v, want 200/serving/ok", code, body)
	}

	// Stuff the tiny buffer past the high watermark with the cleaner
	// behind: admission control starts shedding.
	sess, err := srv.Open("healthz")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	for i := 0; i < 64 && !srv.Shedding(); i++ {
		_, err := sess.Do(server.Request{Kind: server.OpPut, Key: uint64(i), Data: data})
		if err != nil && !errors.Is(err, server.ErrOverloaded) {
			t.Fatal(err)
		}
	}
	if !srv.Shedding() {
		t.Fatal("server never started shedding")
	}
	code, body = getHealthz(t, admin)
	if code != 200 || body["state"] != "shedding" || body["status"] != "overloaded" || body["shedding"] != true {
		t.Fatalf("shedding server: code %d body %v, want 200/shedding/overloaded", code, body)
	}

	// Drain directly on the server (no transport, no SetDraining): the
	// surface must still report it, and degrade to 503.
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	code, body = getHealthz(t, admin)
	if code != 503 || body["state"] != "draining" || body["draining"] != true {
		t.Fatalf("draining server: code %d body %v, want 503/draining", code, body)
	}
}

// TestHealthzSetDraining covers the transport path: the admin flag alone
// (flipped at Shutdown before the data port closes) must degrade
// /healthz to 503.
func TestHealthzSetDraining(t *testing.T) {
	o := obs.New(0)
	_, srv := newStack(t, core.SolidStateConfig{Obs: o})
	admin := server.NewAdmin(srv, o)
	if code, body := getHealthz(t, admin); code != 200 || body["state"] != "serving" {
		t.Fatalf("fresh: %d %v", code, body)
	}
	admin.SetDraining(true)
	if code, body := getHealthz(t, admin); code != 503 || body["state"] != "draining" {
		t.Fatalf("SetDraining: %d %v", code, body)
	}
	admin.SetDraining(false)
	if code, body := getHealthz(t, admin); code != 200 || body["state"] != "serving" {
		t.Fatalf("undrained: %d %v", code, body)
	}
}

// TestAdminScrapeUnderLoad scrapes /metrics and /debug/health (and takes
// the odd on-demand flight record) while a session writes. Read-through gauges (buffer occupancy, free-block and
// erase counts, the rate-sampler rings) evaluate simulation state the
// session mutates under the server's lock, so the handlers must collect
// under that lock; before they did, this test failed under -race on the
// first scrape. It also holds both endpoints to well-formed output
// throughout — collection under the lock, formatting after it.
func TestAdminScrapeUnderLoad(t *testing.T) {
	o := obs.New(0)
	_, srv := newStack(t, core.SolidStateConfig{Obs: o})
	fr, err := obs.NewFlightRecorder(o, t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	o.SetFlightRecorder(fr)
	admin := server.NewAdmin(srv, o)
	sess, err := srv.Open("load")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		data := make([]byte, 4096)
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			_, err := sess.Do(server.Request{Kind: server.OpPut, Key: uint64(i % 32), Data: data})
			if err != nil && !errors.Is(err, server.ErrOverloaded) {
				done <- err
				return
			}
		}
	}()

	h := admin.Handler()
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if err := obs.CheckExposition(rec.Body.Bytes(), []string{"requests_total", "free_blocks", "buffer_occupancy"}); err != nil {
			t.Errorf("scrape %d: /metrics: %v", i, err)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
		var rep flash.HealthReport
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rep.Blocks == 0 {
			t.Errorf("scrape %d: /debug/health: code %d, err %v, body %q", i, rec.Code, err, rec.Body.String())
		}
		if i%10 == 0 {
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrecord", nil))
			if rec.Code != 200 {
				t.Errorf("scrape %d: /debug/flightrecord: code %d, body %q", i, rec.Code, rec.Body.String())
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

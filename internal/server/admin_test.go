package server_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"regexp"
	"slices"
	"testing"

	"ssmobile/internal/cluster"
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

// backend is what ssmserve serves and binds its ops surface to: one
// card's server, or the cluster router.
type backend interface {
	server.Service
	server.AdminSource
}

// newBackend assembles what ssmserve's build does for -nodes n: one card
// reporting to base, or n named cards on private observers behind a
// router that reports to base. sys and cfg apply to every card.
func newBackend(t *testing.T, n int, base *obs.Observer, sys core.SolidStateConfig, cfg server.Config) (backend, []*core.ServedCard) {
	t.Helper()
	cards := make([]*core.ServedCard, n)
	nodes := make([]*cluster.Node, n)
	for i := range cards {
		name, o := "", base
		if n > 1 {
			name, o = fmt.Sprintf("n%d", i), obs.New(0)
		}
		sys.Obs = o
		card, err := core.NewServedCard(core.ServedCardConfig{Name: name, System: sys, Server: cfg})
		if err != nil {
			t.Fatal(err)
		}
		cards[i], nodes[i] = card, card.Node
	}
	if n == 1 {
		return cards[0].Srv, cards
	}
	cl, err := cluster.New(nodes, cluster.Config{Obs: base})
	if err != nil {
		t.Fatal(err)
	}
	return cl, cards
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

// TestAdminScrapeUnderLoad scrapes /metrics, /healthz and /debug/health
// (and takes the odd on-demand flight record) while a session writes —
// over one card, and through a 3-node router. Read-through gauges (buffer
// occupancy, free-block and erase counts, the rate-sampler rings)
// evaluate simulation state the session mutates under the backend's
// lock, so every collection must happen under that lock; before the
// handlers did, this test failed under -race on the first scrape. It
// also holds the endpoints to well-formed output throughout —
// collection under the lock, formatting after it.
func TestAdminScrapeUnderLoad(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			o := obs.New(0)
			svc, cards := newBackend(t, nodes, o, core.SolidStateConfig{
				DRAMBytes: 4 << 20, FlashBytes: 8 << 20, RBoxBytes: 256 << 10,
			}, server.Config{})
			fr, err := obs.NewFlightRecorder(o, t.TempDir(), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			o.SetFlightRecorder(fr)
			admin := server.NewAdmin(svc, o)
			sess, err := svc.OpenSession("load")
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

			health := "/debug/health"
			if nodes > 1 {
				health += "?node=" + cards[nodes-1].Name
			}
			h := admin.Handler()
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if err := obs.CheckExposition(rec.Body.Bytes(), []string{"requests_total", "free_blocks", "buffer_occupancy"}); err != nil {
					t.Errorf("scrape %d: /metrics: %v", i, err)
				}
				if code, body := getHealthz(t, admin); code != 200 {
					t.Errorf("scrape %d: /healthz: code %d, body %v", i, code, body)
				}
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", health, nil))
				var rep flash.HealthReport
				if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rep.Blocks == 0 {
					t.Errorf("scrape %d: %s: code %d, err %v, body %q", i, health, rec.Code, err, rec.Body.String())
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
		})
	}
}

// TestAdminOneSurface holds the ops surface to one behaviour over one
// card and over a 3-node cluster wired as ssmserve wires it (private
// observer per named card, router and surface on the base observer):
// /metrics is well-formed with the same quantile label set, /healthz
// reads overloaded as soon as ANY card sheds — with only the last card
// driven past its watermark; a surface bound to node 0 answered "ok" —
// and /debug/health?node= selects a card, an unknown one being a 404.
func TestAdminOneSurface(t *testing.T) {
	quantile := regexp.MustCompile(`quantile="([^"]+)"`)
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			base := obs.New(0)
			// A free-block target the 128-block card cannot meet, so the
			// cleaner always lags and admission hinges on the watermark.
			src, cards := newBackend(t, nodes, base, core.SolidStateConfig{
				DRAMBytes: 8 << 20, FlashBytes: 8 << 20, BufferBytes: 1 << 20, IdleCleanBlocks: 129,
			}, server.Config{HighWatermark: 0.05, LowWatermark: 0.01})
			admin := server.NewAdmin(src, base)
			get := func(path string) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				admin.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				return rec
			}

			if code, body := getHealthz(t, admin); code != 200 || body["status"] != "ok" {
				t.Fatalf("fresh: code %d body %v, want 200/ok", code, body)
			}
			// Drive only the last card (n2 of the cluster) into shedding,
			// through its own server: the router never sees the traffic.
			last := cards[nodes-1]
			sess, err := last.Srv.Open("t")
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 4096)
			for key := uint64(0); key < 32 && !last.Srv.Shedding(); key++ {
				if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: key, Data: data}); err != nil && !errors.Is(err, server.ErrOverloaded) {
					t.Fatal(err)
				}
			}
			code, body := getHealthz(t, admin)
			if code != 200 || body["status"] != "overloaded" || body["state"] != "shedding" || body["shedding"] != true || len(body) != 4 {
				t.Errorf("last card shedding: code %d body %v, want 200/overloaded/shedding in a 4-field document", code, body)
			}

			metrics := get("/metrics").Body.Bytes()
			if err := obs.CheckExposition(metrics, []string{"requests_total", "free_blocks", "request_latency_ns"}); err != nil {
				t.Errorf("/metrics: %v", err)
			}
			var quantiles []string
			for _, m := range quantile.FindAllSubmatch(metrics, -1) {
				if q := string(m[1]); !slices.Contains(quantiles, q) {
					quantiles = append(quantiles, q)
				}
			}
			if want := []string{"0.5", "0.95", "0.99"}; !slices.Equal(quantiles, want) {
				t.Errorf("/metrics quantile labels %v, want %v", quantiles, want)
			}

			// The last card's report, selected the way its mode names it, is
			// the one its own registry yields.
			path := "/debug/health"
			if nodes > 1 {
				path += "?node=" + last.Name
			}
			want, err := flash.HealthFromSnapshot(last.Obs.Registry.Snapshot(), "flash")
			if err != nil {
				t.Fatal(err)
			}
			var got flash.HealthReport
			if rec := get(path); rec.Code != 200 {
				t.Errorf("%s: code %d: %s", path, rec.Code, rec.Body)
			} else if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Errorf("%s: %v", path, err)
			} else if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Errorf("%s is not the last card's report:\n got %+v\nwant %+v", path, got, want)
			}
			if rec := get("/debug/health?node=nope"); rec.Code != 404 {
				t.Errorf("unknown node: code %d, want 404", rec.Code)
			}
			// Only a source over several cards has a fleet to roll up.
			if rec := get("/debug/fleet"); (rec.Code == 200) != (nodes > 1) {
				t.Errorf("/debug/fleet: code %d with %d card(s)", rec.Code, nodes)
			}
		})
	}
}

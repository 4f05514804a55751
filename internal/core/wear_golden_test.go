package core

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/workload"
)

var updateWearGoldens = flag.Bool("update-wear", false, "rewrite the health/heatmap golden files")

// Golden tests for the device-health surface: the /debug/health JSON
// document (served by the admin endpoint, reconstructed offline by
// `ssmtrace health -json`) and the `ssmtrace wear` heatmap are pinned
// byte-exactly per seed. Everything downstream of a metrics snapshot is
// a pure function, so any drift here is either a deliberate format
// change (regenerate with -update-wear) or a determinism regression.

// wearFixture runs a small aged-card workload under a private observer
// and returns the snapshot everything is rendered from.
func wearFixture(t *testing.T, seed int64) (obs.Snapshot, *server.Server, *obs.Observer) {
	t.Helper()
	priv := obs.New(1 << 12)
	card, err := NewServedCard(ServedCardConfig{System: E12Card(priv), AgeBytes: 6 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := card.Srv
	if _, err := server.RunWorkload(srv, workload.Config{
		Seed:          seed,
		Clients:       2,
		OpsPerClient:  150,
		Keys:          8,
		ObjectBytes:   32 << 10,
		MinWriteBytes: 4096,
		MaxWriteBytes: 4096,
		Mix:           workload.Mix{Read: 0.4, Write: 0.5, Delete: 0.05, Sync: 0.05},
		Popularity:    workload.Zipf,
		ZipfSkew:      1.2,
		RatePerClient: 10,
	}); err != nil {
		t.Fatal(err)
	}
	return priv.Registry.Snapshot(), srv, priv
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateWearGoldens {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden: %v (regenerate with go test -run %s -update-wear)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestWearSurfaceGolden(t *testing.T) {
	for _, seed := range []int64{1993, 1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			snap, srv, priv := wearFixture(t, seed)

			// The live endpoint's bytes, via the real admin handler: this
			// is exactly the document an operator curls.
			admin := server.NewAdmin(srv, priv)
			rec := httptest.NewRecorder()
			admin.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
			if rec.Code != 200 {
				t.Fatalf("/debug/health: HTTP %d: %s", rec.Code, rec.Body.String())
			}
			checkGolden(t, fmt.Sprintf("health_seed%d.golden.json", seed), rec.Body.Bytes())

			// The offline reconstruction must agree with the endpoint —
			// the acceptance contract for `ssmtrace health`.
			rep, err := flash.HealthFromSnapshot(snap, "flash")
			if err != nil {
				t.Fatal(err)
			}
			endpointRep, err := flash.HealthFromSnapshot(priv.Registry.Snapshot(), "flash")
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%+v", rep) != fmt.Sprintf("%+v", endpointRep) {
				t.Fatalf("offline report diverged from endpoint:\n%+v\n%+v", rep, endpointRep)
			}

			var heat bytes.Buffer
			if err := flash.RenderWearHeatmap(&heat, snap, "flash"); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("wear_heatmap_seed%d.golden", seed), heat.Bytes())
		})
	}
}

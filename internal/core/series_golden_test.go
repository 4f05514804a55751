package core

import (
	"bytes"
	"testing"

	"ssmobile/internal/cluster"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
)

// The stdout goldens do not see telemetry wiring: an assembly change that
// adds, drops, renames or re-labels a series leaves every table intact.
// These goldens pin the series identities (name + labels, no values) a
// served card and a 3-node cluster register, after a short E12 burst so
// series created on first use are present. They were generated from the
// hand-rolled assembly that preceded NewServedCard; regenerate with
// -update-wear only for a deliberate change to what the stack exports.

func seriesKeys(snap obs.Snapshot) []byte {
	var b bytes.Buffer
	for _, m := range snap.Metrics {
		b.WriteString(m.Key())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSeriesKeySetGolden(t *testing.T) {
	traffic := E12Traffic(1993, 4, 100, 0.6)

	t.Run("card", func(t *testing.T) {
		o := obs.New(0)
		card, err := NewServedCard(ServedCardConfig{System: E12Card(o), AgeBytes: 6 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.RunWorkload(card.Srv, traffic); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "series_card.golden", seriesKeys(o.Registry.Snapshot()))
	})

	t.Run("fleet", func(t *testing.T) {
		base := obs.New(0)
		base.SetEventLog(obs.NewEventLog(0))
		nodes, err := newE12Nodes(3, false)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(nodes, cluster.Config{Obs: base})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.RunWorkload(cl, traffic); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "series_fleet.golden", seriesKeys(cl.Snapshot()))
	})
}

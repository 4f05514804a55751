package core

import (
	"fmt"
	"slices"
	"testing"

	"ssmobile/internal/server"
	"ssmobile/internal/sim"
	"ssmobile/internal/workload"
)

// latencyLog wraps a service so every completed request's latency is
// kept exactly; RunStats only has them in a log-bucketed histogram, and
// nine per cent buckets are too coarse to hold a spread to 25 %.
type latencyLog struct {
	server.Service
	lat *[]sim.Duration
}

type loggedSession struct {
	server.RequestDoer
	lat *[]sim.Duration
}

func (l latencyLog) OpenSession(tenant string) (server.RequestDoer, error) {
	sess, err := l.Service.OpenSession(tenant)
	return loggedSession{sess, l.lat}, err
}

func (s loggedSession) Do(req server.Request) (server.Response, error) {
	resp, err := s.RequestDoer.Do(req)
	if err == nil {
		*s.lat = append(*s.lat, resp.Latency)
	}
	return resp, err
}

// churnP99 is the benchmark's churn workload at its reference rate on a
// card from NewServedCard: a 128 MB card idle-cleaning to 16 free
// blocks, two tenants' 96 × 512 KB objects preloaded (75 % of the card),
// then two open-loop clients at one request a second each — 80 % uniform
// 512–4096 B overwrites, 15 % reads, 5 % syncs. It reports the p99 of
// the 24 000 latencies by nearest rank.
func churnP99(t *testing.T, engine string, seed int64) sim.Duration {
	t.Helper()
	card, err := NewServedCard(ServedCardConfig{System: SolidStateConfig{
		DRAMBytes: 16 << 20, FlashBytes: 128 << 20, BufferBytes: 4 << 20,
		IdleCleanBlocks: 16, Engine: engine,
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{
		Seed: seed, Clients: 2, OpsPerClient: 12000,
		Keys: 96, ObjectBytes: 512 << 10, MinWriteBytes: 512, MaxWriteBytes: 4096,
		Mix:        workload.Mix{Read: 0.15, Write: 0.80, Sync: 0.05},
		Popularity: workload.Uniform,
		Arrival:    workload.OpenLoop, RatePerClient: 1,
	}
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	for c := 0; c < cfg.Clients; c++ {
		sess, err := card.Srv.Open(fmt.Sprintf("c%d", c))
		if err != nil {
			t.Fatal(err)
		}
		for key := 0; key < cfg.Keys; key++ {
			for off := int64(0); off < cfg.ObjectBytes; off += int64(len(chunk)) {
				if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: uint64(key), Offset: off, Data: chunk}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := sess.Do(server.Request{Kind: server.OpSync}); err != nil {
			t.Fatal(err)
		}
	}
	var lat []sim.Duration
	st, err := server.RunWorkload(latencyLog{card.Srv, &lat}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != 0 || st.Completed != st.Offered {
		t.Fatalf("%s seed %d: %d of %d requests completed, %d shed", engine, seed, st.Completed, st.Offered, st.Shed)
	}
	slices.Sort(lat)
	return lat[int(0.99*float64(len(lat))+0.5)-1]
}

// The churn tail used to be set by how many back-to-back cleans one idle
// moment happened to trigger, so the same code read anywhere from 14 s
// to 24 s by seed (pdl, 18 seeds, max ÷ min 1.70) and no change to the
// flash traffic could be judged by it. With idle cleaning that yields to
// arrivals the tail is one clean plus the queue behind it, whatever the
// seed.
func TestChurnTailIsNotALottery(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve churn runs on a 128 MB card")
	}
	for _, engine := range []string{"ftl", "pdl"} {
		t.Run(engine, func(t *testing.T) {
			var p99s []sim.Duration
			for _, seed := range []int64{1993, 7, 1, 42, 3, 11} {
				p99s = append(p99s, churnP99(t, engine, seed))
			}
			lo, hi := slices.Min(p99s), slices.Max(p99s)
			t.Logf("p99 by seed %v: max/min %.3f", p99s, float64(hi)/float64(lo))
			if float64(hi) > 1.25*float64(lo) {
				t.Errorf("p99 spreads %.2fx over six seeds (%v to %v), want at most 1.25x", float64(hi)/float64(lo), lo, hi)
			}
		})
	}
}

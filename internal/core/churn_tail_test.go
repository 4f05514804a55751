package core

import (
	"fmt"
	"slices"
	"testing"

	"ssmobile/internal/engine/backends"
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

// churnLimit is the latency limit the benchmark freezes for both churn
// workloads: a rung of its rate ladder passes when nothing is shed and
// both the p99 and the median of the last twentieth of the requests (a
// backlog still growing when the rung ends) are within it.
const churnLimit = 40 * sim.Second

// churnP99 is one rung of the benchmark's churn workload on a card from
// NewServedCard: a 128 MB card idle-cleaning to 16 free blocks, two
// tenants' 96 × 512 KB objects preloaded (75 % of the card), then two
// open-loop clients at rate requests a second each (the benchmark's
// reference rate is 1) — 80 % uniform 512–4096 B overwrites, 15 % reads,
// 5 % syncs. It reports the p99 of the completed requests' latencies by
// nearest rank, the median latency of the last twentieth of them, and how
// many requests were shed.
func churnP99(t *testing.T, engine string, seed int64, rate float64) (p99, tail sim.Duration, shed int64) {
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
		Mix:           workload.Mix{Read: 0.15, Write: 0.80, Sync: 0.05},
		Popularity:    workload.Uniform,
		RatePerClient: rate,
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
	if st.Completed+st.Shed != st.Offered {
		t.Fatalf("%s seed %d: %d of %d requests completed, %d shed", engine, seed, st.Completed, st.Offered, st.Shed)
	}
	last := slices.Clone(lat[len(lat)-len(lat)/20:])
	slices.Sort(last)
	slices.Sort(lat)
	return lat[int(0.99*float64(len(lat))+0.5)-1], last[int(0.5*float64(len(last))+0.5)-1], st.Shed
}

// churnSeeds are the six seeds both churn tests run: the benchmark's two
// and four more.
var churnSeeds = []int64{1993, 7, 1, 42, 3, 11}

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
	for _, engine := range backends.Names {
		t.Run(engine, func(t *testing.T) {
			var p99s []sim.Duration
			for _, seed := range churnSeeds {
				p99, _, shed := churnP99(t, engine, seed, 1)
				if shed != 0 {
					t.Fatalf("seed %d: %d requests shed at the reference rate", seed, shed)
				}
				p99s = append(p99s, p99)
			}
			lo, hi := slices.Min(p99s), slices.Max(p99s)
			t.Logf("p99 by seed %v: max/min %.3f", p99s, float64(hi)/float64(lo))
			if float64(hi) > 1.25*float64(lo) {
				t.Errorf("p99 spreads %.2fx over six seeds (%v to %v), want at most 1.25x", float64(hi)/float64(lo), lo, hi)
			}
		})
	}
}

// At twice the reference rate there are no idle gaps: every clean is in
// the foreground, and the rung's 1.6 s erases plus its 41 ms page programs
// add up to more device time than the rung lasts, so it completes only by
// overlapping erases in one bank with programs in another. An engine that
// opens its next log head in the block it has just sent to erase, or
// erases under its own head, serialises the two and the queue runs away
// (p99 141–159 s by seed before the engines asked which bank is busy).
// With victims and heads kept out of each other's banks ftl meets the
// benchmark's objective at this rate on every seed. pdl improves as much
// but still misses it while its log first wraps — a dozen pages relocated
// per clean, each clean netting a third of a block — so it is logged, not
// held.
func TestChurnSecondRung(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve churn runs on a 128 MB card")
	}
	for _, engine := range backends.Names {
		t.Run(engine, func(t *testing.T) {
			for _, seed := range churnSeeds {
				p99, tail, shed := churnP99(t, engine, seed, 2)
				t.Logf("seed %d: p99 %v, last-5%% median %v, %d shed", seed, p99, tail, shed)
				if engine == "ftl" && (shed != 0 || p99 > churnLimit || tail > churnLimit) {
					t.Errorf("seed %d misses the objective at 2 ops/s/client: p99 %v, last-5%% median %v (limit %v), %d shed",
						seed, p99, tail, churnLimit, shed)
				}
			}
		})
	}
}

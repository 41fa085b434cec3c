// What EngineDist hands its router, frozen: a recording sim.DistRouter takes
// the place of the process-spawning one and hashes every (round, shard,
// batch) of the rounds that carry a message, in call order. The engine may
// change which rounds it routes at all — a round with no global message has
// nothing for a worker to do — but never what a routed round carries, nor
// the Metrics that come out.
//
// Two hashes: Heads covers (round, shard, batch length, Src, Dst, Kind), Full
// adds the payload words. Heads was pinned first because APSP's payloads did
// not repeat from process to process: the skeleton result was a Go map, so a
// node listed its edge tokens (hybridapsp's publish phase) and the [3]
// baseline its label tokens in map order, and which token rode to which
// random balancing destination changed with it. The result is now an
// ID-sorted list, the tokens follow it, and every run pins Full too: the
// SSSP, Cor 5.2 diameter and [3] baseline runs added later repeated Full
// from process to process and at -cpu 1,2,4 when they were recorded.
package hybrid_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	hybrid "repro"
	"repro/internal/dist"
	"repro/internal/sim"
)

// recordingRouter is the worker contract in-process: per shard, a stable
// sort by destination.
type recordingRouter struct {
	heads, full hash.Hash64
	routed      int // calls carrying at least one message
	empty       int // calls whose batches were all empty
}

// put hashes header words; payload words go to the full hash only.
func (r *recordingRouter) put(payload bool, vs ...int64) {
	var w [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		r.full.Write(w[:])
		if !payload {
			r.heads.Write(w[:])
		}
	}
}

func (r *recordingRouter) RouteRound(round int, outgoing [][]sim.GlobalMsg) ([][]sim.GlobalMsg, sim.DistRoundStats, error) {
	var stats sim.DistRoundStats
	for _, batch := range outgoing {
		stats.GlobalMsgs += int64(len(batch))
	}
	if stats.GlobalMsgs == 0 {
		r.empty++
		return make([][]sim.GlobalMsg, len(outgoing)), stats, nil
	}
	r.routed++
	r.put(false, int64(round))
	streams := make([][]sim.GlobalMsg, len(outgoing))
	for k, batch := range outgoing {
		r.put(false, int64(k), int64(len(batch)))
		for _, m := range batch {
			r.put(false, int64(m.Src), int64(m.Dst), int64(m.Kind))
			r.put(true, m.F0, m.F1, m.F2, m.F3)
		}
		streams[k] = append([]sim.GlobalMsg(nil), batch...)
		sort.SliceStable(streams[k], func(i, j int) bool { return streams[k][i].Dst < streams[k][j].Dst })
	}
	return streams, stats, nil
}

func (r *recordingRouter) Close() error { return nil }

// routedPin is the frozen outcome of one recorded run.
type routedPin struct {
	Metrics     hybrid.Metrics
	Routed      int
	Heads, Full uint64
}

// TestDistRoutedTrafficPin holds an APSP, a k-SSP, an SSSP, a diameter and
// a [3] baseline run on EngineDist to their recorded routed traffic, so that
// no pipeline's messages can change unnoticed, and requires that no round
// without a global message is routed. The pins were last recorded when the
// skeleton's cache agreement left every run: each lost its first 12 routed
// rounds and one aggregation's 2(n-1) messages, every other Metrics field
// stayed, and the hashes moved with the round numbers they cover.
func TestDistRoutedTrafficPin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sparse := hybrid.WithRandomWeights(hybrid.SparseGraph(40, 1.3, rng), 9, rng)
	cases := []struct {
		name string
		g    *hybrid.Graph
		run  func(nw *hybrid.Network) (hybrid.Metrics, error)
		pin  routedPin
	}{
		{"apsp grid 6x6", hybrid.GridGraph(6, 6), func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.APSP()
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 1359, GlobalMsgs: 2265, GlobalBits: 117780, LocalMsgs: 9020, LocalBits: 2232768, MaxGlobalSend: 6, MaxGlobalRecv: 10}, Routed: 140, Heads: 0x55b59d26b310162f, Full: 0x8c1b5fb170870df0}},
		{"kssp sparse 40", sparse, func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.KSSP([]int{3, 17, 31}, hybrid.Cor47(0.5))
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 1730, GlobalMsgs: 1744, GlobalBits: 90688, LocalMsgs: 6931, LocalBits: 1178550, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Routed: 173, Heads: 0x33c6869d46782237, Full: 0x9f8e65cc1a039a4}},
		{"sssp sparse 40", sparse, func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.SSSP(3)
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 2001, GlobalMsgs: 1539, GlobalBits: 80028, LocalMsgs: 6370, LocalBits: 1033698, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Routed: 173, Heads: 0x67c0708f1537ba1f, Full: 0x259eda0919d6df59}},
		{"diameter cor52 grid 6x6", hybrid.GridGraph(6, 6), func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.Diameter(hybrid.DiamCor52(0.5))
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 1342, GlobalMsgs: 1560, GlobalBits: 81120, LocalMsgs: 5641, LocalBits: 457008, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Routed: 187, Heads: 0x158cbd2bac7cc6e9, Full: 0x9c6f1dcdde71c9c6}},
		{"apsp baseline grid 6x6", hybrid.GridGraph(6, 6), func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.APSPBaseline()
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 748, GlobalMsgs: 6595, GlobalBits: 342940, LocalMsgs: 2142, LocalBits: 509760, MaxGlobalSend: 6, MaxGlobalRecv: 15}, Routed: 114, Heads: 0xeca90c48d33ab145, Full: 0x716f61418fd57ba0}},
	}
	defer sim.RegisterDistRouter(func(cfg sim.DistRouterConfig) (sim.DistRouter, error) { return dist.New(cfg) })
	for _, c := range cases {
		rec := &recordingRouter{heads: fnv.New64a(), full: fnv.New64a()}
		sim.RegisterDistRouter(func(sim.DistRouterConfig) (sim.DistRouter, error) { return rec, nil })
		m, err := c.run(hybrid.New(c.g, hybrid.WithSeed(42), hybrid.WithEngine(hybrid.EngineDist), hybrid.WithWorkers(2)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := (routedPin{Metrics: m, Routed: rec.routed, Heads: rec.heads.Sum64(), Full: rec.full.Sum64()}); got != c.pin {
			t.Errorf("%s: routed traffic diverged from the pinned one:\n got %#v\nwant %#v", c.name, got, c.pin)
		}
		if rec.empty != 0 {
			t.Errorf("%s: %d RouteRound calls had every batch empty; such a round is not to be routed", c.name, rec.empty)
		}
	}
}

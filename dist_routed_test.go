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
// stayed, and the hashes moved with the round numbers they cover. They
// were re-recorded when the node streams became SplitMix64: only drawn
// traffic moved.
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
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 1358, GlobalMsgs: 1642, GlobalBits: 85384, LocalMsgs: 8699, LocalBits: 1587426, MaxGlobalSend: 6, MaxGlobalRecv: 7}, Routed: 132, Heads: 0x8989bd4dcaa52754, Full: 0x4574ea6edbd46126}},
		{"kssp sparse 40", sparse, func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.KSSP([]int{3, 17, 31}, hybrid.Cor47(0.5))
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 1730, GlobalMsgs: 1662, GlobalBits: 86424, LocalMsgs: 6957, LocalBits: 906396, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Routed: 173, Heads: 0x88a7021bd4cee3e, Full: 0x7af363e91e67c3f0}},
		{"sssp sparse 40", sparse, func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.SSSP(3)
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 1737, GlobalMsgs: 1457, GlobalBits: 75764, LocalMsgs: 6122, LocalBits: 609306, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Routed: 173, Heads: 0xa3894f2c8d98a6bc, Full: 0xedc8c01b64fa9585}},
		{"diameter cor52 grid 6x6", hybrid.GridGraph(6, 6), func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.Diameter(hybrid.DiamCor52(0.5))
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 1342, GlobalMsgs: 1523, GlobalBits: 79196, LocalMsgs: 5767, LocalBits: 432960, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Routed: 181, Heads: 0x8fbfef2dc233f812, Full: 0xf1c51d60c4fab5eb}},
		{"apsp baseline grid 6x6", hybrid.GridGraph(6, 6), func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.APSPBaseline()
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 758, GlobalMsgs: 3055, GlobalBits: 158860, LocalMsgs: 1753, LocalBits: 244080, MaxGlobalSend: 6, MaxGlobalRecv: 11}, Routed: 86, Heads: 0x6fd6c11d23d35cc1, Full: 0xdf96d4ec41035fa2}},
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

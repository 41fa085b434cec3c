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
// sort by destination and the receive accounting.
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
	stats := sim.DistRoundStats{ViolDst: -1}
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
	recv := make(map[int]int)
	for k, batch := range outgoing {
		r.put(false, int64(k), int64(len(batch)))
		for _, m := range batch {
			r.put(false, int64(m.Src), int64(m.Dst), int64(m.Kind))
			r.put(true, m.F0, m.F1, m.F2, m.F3)
			if recv[m.Dst]++; recv[m.Dst] > stats.MaxRecv {
				stats.MaxRecv = recv[m.Dst]
			}
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

// TestDistRoutedTrafficPin holds one APSP and one k-SSP run on EngineDist to
// the routed traffic recorded before the engine stopped routing empty rounds
// (175 and 113 of them on these two runs), and requires that it has stopped.
// The SSSP, diameter and [3] baseline runs are held to traffic recorded
// after that, so that no pipeline's messages can change unnoticed.
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
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 1371, GlobalMsgs: 2335, GlobalBits: 121420, LocalMsgs: 9020, LocalBits: 2232768, MaxGlobalSend: 6, MaxGlobalRecv: 10}, Routed: 152, Heads: 0x603e962e6402834a, Full: 0x8068ebeb9a9171d}},
		{"kssp sparse 40", sparse, func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.KSSP([]int{3, 17, 31}, hybrid.Cor47(0.5))
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 1742, GlobalMsgs: 1822, GlobalBits: 94744, LocalMsgs: 6931, LocalBits: 1178550, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Routed: 185, Heads: 0xf428c8f6b51c1e98, Full: 0x42a2645ac98f579b}},
		{"sssp sparse 40", sparse, func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.SSSP(3)
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 2013, GlobalMsgs: 1617, GlobalBits: 84084, LocalMsgs: 6370, LocalBits: 1033698, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Routed: 185, Heads: 0xe7506a5d69f09cdb, Full: 0x5382a864f179e92d}},
		{"diameter cor52 grid 6x6", hybrid.GridGraph(6, 6), func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.Diameter(hybrid.DiamCor52(0.5))
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 1354, GlobalMsgs: 1630, GlobalBits: 84760, LocalMsgs: 9059, LocalBits: 406092, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Routed: 199, Heads: 0x1a5674bdbddaa64, Full: 0xb760aceca5aa49b3}},
		{"apsp baseline grid 6x6", hybrid.GridGraph(6, 6), func(nw *hybrid.Network) (hybrid.Metrics, error) {
			res, err := nw.APSPBaseline()
			if err != nil {
				return hybrid.Metrics{}, err
			}
			return res.Metrics, nil
		}, routedPin{Metrics: hybrid.Metrics{Rounds: 760, GlobalMsgs: 6665, GlobalBits: 346580, LocalMsgs: 2142, LocalBits: 509760, MaxGlobalSend: 6, MaxGlobalRecv: 15}, Routed: 126, Heads: 0x657d15f7a68dea5c, Full: 0xa6609fe8f051cd9d}},
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

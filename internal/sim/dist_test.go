package sim

import "sort"

// The package's tests run EngineDist's round boundary without worker
// processes: sortingRouter does in-process what a worker does for its shard.
func init() {
	RegisterDistRouter(func(DistRouterConfig) (DistRouter, error) { return &sortingRouter{}, nil })
}

// sortingRouter stable-sorts each shard's batch by destination: the
// delivery order a worker returns. Like the dist Router it returns streams
// in buffers it reuses, and it poisons the previous round's streams first
// (Src = Dst = -1), so an engine that kept a stream past the next
// RouteRound reads poisoned messages.
type sortingRouter struct {
	streams [][]GlobalMsg
}

func (r *sortingRouter) RouteRound(_ int, outgoing [][]GlobalMsg) ([][]GlobalMsg, DistRoundStats, error) {
	var stats DistRoundStats
	if len(r.streams) != len(outgoing) {
		r.streams = make([][]GlobalMsg, len(outgoing))
	}
	for k, batch := range outgoing {
		for i := range r.streams[k] {
			r.streams[k][i].Src, r.streams[k][i].Dst = -1, -1
		}
		stats.GlobalMsgs += int64(len(batch))
		s := append(r.streams[k][:0], batch...)
		sort.SliceStable(s, func(i, j int) bool { return s[i].Dst < s[j].Dst })
		r.streams[k] = s
	}
	return r.streams, stats, nil
}

func (*sortingRouter) Close() error { return nil }

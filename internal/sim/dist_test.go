package sim

import "sort"

// The package's tests run EngineDist's round boundary without worker
// processes: sortingRouter does in-process what a worker does for its shard.
func init() {
	RegisterDistRouter(func(DistRouterConfig) (DistRouter, error) { return sortingRouter{}, nil })
}

// sortingRouter stable-sorts each shard's batch by destination: the
// delivery order a worker returns.
type sortingRouter struct{}

func (sortingRouter) RouteRound(_ int, outgoing [][]GlobalMsg) ([][]GlobalMsg, DistRoundStats, error) {
	var stats DistRoundStats
	streams := make([][]GlobalMsg, len(outgoing))
	for k, batch := range outgoing {
		stats.GlobalMsgs += int64(len(batch))
		streams[k] = append([]GlobalMsg(nil), batch...)
		sort.SliceStable(streams[k], func(i, j int) bool { return streams[k][i].Dst < streams[k][j].Dst })
	}
	return streams, stats, nil
}

func (sortingRouter) Close() error { return nil }

package dist

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dist/wire"
	"repro/internal/sim"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// stableByDst is the oracle sortRound must equal: the batch stable-sorted
// by destination.
func stableByDst(msgs []sim.GlobalMsg) []sim.GlobalMsg {
	out := slices.Clone(msgs)
	slices.SortStableFunc(out, func(a, b sim.GlobalMsg) int { return cmp.Compare(a.Dst, b.Dst) })
	return out
}

// TestSortRoundMatchesStableSort holds sortRound to the oracle on random
// batches over shard ranges from one node to 2^31−1 nodes: destinations
// repeat, reach both ends of [Lo, Hi), and need one to four radix passes.
// Every message carries its batch index in F0, so a lost tie order shows.
// One workerState serves every batch, as one connection does.
func TestSortRoundMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shards := []struct{ lo, hi int }{
		{0, 1}, {7, 8}, {0, 2}, {4, 8}, {100, 356}, {100, 357}, {0, 1000},
		{5, 70_000}, {1 << 20, 1<<20 + 1<<24 + 3}, {0, 1<<31 - 1}, {1<<31 - 2, 1<<31 - 1},
	}
	st := &workerState{}
	for _, sh := range shards {
		st.lo, st.hi = sh.lo, sh.hi
		for _, size := range []int{0, 1, 2, 3, 17, 256, 1000} {
			for _, spread := range []int{1, 3, 1 << 30} { // distinct destinations at most
				msgs := make([]sim.GlobalMsg, size)
				width := min(spread, sh.hi-sh.lo)
				for i := range msgs {
					var dst int
					switch i % 5 {
					case 0:
						dst = sh.lo
					case 1:
						dst = sh.hi - 1
					default:
						dst = sh.lo + rng.Intn(width)
					}
					msgs[i] = sim.GlobalMsg{Src: rng.Intn(64), Dst: dst, Kind: sim.Kind(i % 3)}
				}
				rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
				for i := range msgs {
					msgs[i].F0 = int64(i)
				}
				want := stableByDst(msgs)
				got, err := st.sortRound(slices.Clone(msgs))
				if err != nil {
					t.Fatalf("[%d,%d) size %d: %v", sh.lo, sh.hi, size, err)
				}
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("[%d,%d) size %d spread %d: sorted\n%v\nwant\n%v", sh.lo, sh.hi, size, spread, got, want)
				}
			}
		}
	}
}

// TestSortRoundOutOfShard: a destination outside [Lo, Hi) — one below, at
// Hi, or far above — is refused with the error text the coordinator has
// always received.
func TestSortRoundOutOfShard(t *testing.T) {
	st := &workerState{lo: 4, hi: 8}
	for _, dst := range []int{3, 8, 9, 1 << 30} {
		msgs := []sim.GlobalMsg{{Src: 0, Dst: 5}, {Src: 1, Dst: dst}, {Src: 2, Dst: 4}}
		_, err := st.sortRound(msgs)
		want := fmt.Sprintf("message for node %d outside shard range [4,8)", dst)
		if err == nil || err.Error() != want {
			t.Fatalf("dst %d: err %v, want %q", dst, err, want)
		}
	}
}

// TestSortRoundScratchBoundedByBatch: a Hello may claim a shard of 2^31−1
// nodes; sorting a 3-message batch for it must allocate on the order of the
// batch, not of the range.
func TestSortRoundScratchBoundedByBatch(t *testing.T) {
	h, err := wire.DecodeHello(wire.AppendHello(nil, wire.Hello{N: 1<<31 - 1, Lo: 0, Hi: 1<<31 - 1}))
	if err != nil {
		t.Fatal(err)
	}
	batch := []sim.GlobalMsg{{Src: 0, Dst: 1<<31 - 2}, {Src: 1, Dst: 0}, {Src: 2, Dst: 1 << 20}}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		st := &workerState{shard: h.Shard, lo: h.Lo, hi: h.Hi}
		if _, err := st.sortRound(slices.Clone(batch)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// Per run: the workerState, the batch clone and the scratch, ~0.5 KiB.
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4<<10 {
		t.Fatalf("sorting 3 messages for a 2^31−1-node shard allocated %d bytes per run", per)
	}
}

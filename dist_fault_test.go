// Facade-level fault-injection tests for the distributed engine: a worker
// killed mid-run must be respawned and replayed to a byte-identical result,
// injected frame drops must be absorbed by the retry path, and a round trip
// lost for good must end by the run's context deadline. All are exercised
// end to end — real worker OS processes, real unix sockets — against the
// legacy engine as the correctness oracle.
package hybrid_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	hybrid "repro"
	"repro/internal/dist"
)

// TestDistWorkerKillReplay kills one worker process at a drawn round in the
// middle of an APSP run. The coordinator must respawn it, replay the round,
// and finish with distances and metrics byte-identical to both a clean
// EngineDist run and the legacy oracle. The kill round is drawn from 73–92,
// inside the run's first stretch of global rounds (73–115); a round with
// no global message reaches no worker.
func TestDistWorkerKillReplay(t *testing.T) {
	g := hybrid.GridGraph(6, 6)
	rng := rand.New(rand.NewSource(1))
	killRound := 73 + rng.Intn(20)

	oracle, err := hybrid.New(g, hybrid.WithSeed(42), hybrid.WithEngine(hybrid.EngineLegacy)).APSP()
	if err != nil {
		t.Fatalf("legacy: %v", err)
	}
	clean, err := hybrid.New(g, hybrid.WithSeed(42), hybrid.WithEngine(hybrid.EngineDist),
		hybrid.WithWorkers(2)).APSP()
	if err != nil {
		t.Fatalf("clean dist: %v", err)
	}

	faults := dist.NewFaults().KillWorker(1, killRound)
	faulty, err := hybrid.New(g, hybrid.WithSeed(42), hybrid.WithEngine(hybrid.EngineDist),
		hybrid.WithWorkers(2), hybrid.WithDistOptions(dist.WithFaults(faults))).APSP()
	if err != nil {
		t.Fatalf("dist with kill at round %d: %v", killRound, err)
	}

	st := faults.Stats()
	if st.Killed != 1 {
		t.Fatalf("fault plan killed %d workers, want 1 (round %d)", st.Killed, killRound)
	}
	if st.Respawns < 1 {
		t.Fatalf("coordinator recorded %d respawns, want >= 1", st.Respawns)
	}
	if !reflect.DeepEqual(clean.Dist, faulty.Dist) {
		t.Errorf("kill+replay run diverges from clean dist run (kill round %d)", killRound)
	}
	if clean.Metrics != faulty.Metrics {
		t.Errorf("kill+replay metrics differ from clean dist: %+v vs %+v", clean.Metrics, faulty.Metrics)
	}
	if !reflect.DeepEqual(oracle.Dist, faulty.Dist) {
		t.Errorf("kill+replay run diverges from legacy oracle (kill round %d)", killRound)
	}
	if oracle.Metrics != faulty.Metrics {
		t.Errorf("kill+replay metrics differ from legacy: %+v vs %+v", oracle.Metrics, faulty.Metrics)
	}
}

// TestDistFrameDropRetry injects transient frame drops into an SSSP run and
// checks the bounded-retry path delivers a result identical to the legacy
// oracle, with the drops actually consumed. Rounds 28 and 32 lie in the
// run's first stretch of global rounds (28–34).
func TestDistFrameDropRetry(t *testing.T) {
	g := hybrid.PathGraph(30)
	oracle, err := hybrid.New(g, hybrid.WithSeed(7), hybrid.WithEngine(hybrid.EngineLegacy)).SSSP(0)
	if err != nil {
		t.Fatalf("legacy: %v", err)
	}

	faults := dist.NewFaults().DropFrames(0, 28, 1).DropFrames(1, 32, 2)
	opts := dist.WithFaults(faults)
	opts.FrameTimeout = 200 * time.Millisecond // keep retries quick under test
	res, err := hybrid.New(g, hybrid.WithSeed(7), hybrid.WithEngine(hybrid.EngineDist),
		hybrid.WithWorkers(2), hybrid.WithDistOptions(opts)).SSSP(0)
	if err != nil {
		t.Fatalf("dist with drops: %v", err)
	}
	if st := faults.Stats(); st.Dropped != 3 {
		t.Fatalf("fault plan dropped %d frames, want 3", st.Dropped)
	}
	if !reflect.DeepEqual(oracle.Dist, res.Dist) {
		t.Errorf("dropped-frame run diverges from legacy oracle")
	}
	if oracle.Metrics != res.Metrics {
		t.Errorf("dropped-frame metrics differ: legacy %+v dist %+v", oracle.Metrics, res.Metrics)
	}
}

// TestDistRoundTripHonoursContext: the run's context bounds a round trip,
// not only the round boundary. Shard 0 loses every request of round 28,
// the run's first global round; at the default 3 s frame timeout the retry
// loop alone would take 12 s, but the run ends by the context's 300 ms
// deadline with an error for which errors.Is(err, context.DeadlineExceeded)
// holds. A far-off deadline leaves a clean run identical to the legacy
// oracle.
func TestDistRoundTripHonoursContext(t *testing.T) {
	g := hybrid.PathGraph(30)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	faults := dist.NewFaults().DropFrames(0, 28, 100)
	start := time.Now()
	_, err := hybrid.New(g, hybrid.WithSeed(7), hybrid.WithEngine(hybrid.EngineDist), hybrid.WithWorkers(2),
		hybrid.WithDistOptions(dist.WithFaults(faults)), hybrid.WithContext(ctx)).SSSP(0)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("run took %v past a 300ms deadline", elapsed)
	}
	if faults.Stats().Dropped == 0 {
		t.Fatal("the run ended before the faulted round: nothing was lost in a round trip")
	}

	oracle, err := hybrid.New(g, hybrid.WithSeed(7), hybrid.WithEngine(hybrid.EngineLegacy)).SSSP(0)
	if err != nil {
		t.Fatalf("legacy: %v", err)
	}
	long, cancelLong := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancelLong()
	res, err := hybrid.New(g, hybrid.WithSeed(7), hybrid.WithEngine(hybrid.EngineDist), hybrid.WithWorkers(2),
		hybrid.WithContext(long)).SSSP(0)
	if err != nil {
		t.Fatalf("dist under a far-off deadline: %v", err)
	}
	if !reflect.DeepEqual(oracle.Dist, res.Dist) || oracle.Metrics != res.Metrics {
		t.Error("a far-off deadline perturbed a clean run")
	}
}

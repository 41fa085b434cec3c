// Connect-mode end-to-end tests: real pre-started resident worker OS
// processes on TCP loopback, a coordinator that dials them instead of
// starting its own, and the legacy engine as the correctness oracle — the
// full cross-machine deployment shape, minus the machine boundary.
package hybrid_test

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	hybrid "repro"
	"repro/internal/chaos"
	"repro/internal/dist"
)

// TestResidentWorkerProcess is not a test but what cmd/hybridworker's main
// does, for startWorkerProc to re-execute the test binary as: given a listen
// spec and a shard after "--", it announces the bound address and serves
// coordinators until killed. Run as a test it has no arguments and returns.
func TestResidentWorkerProcess(t *testing.T) {
	args := flag.Args()
	if len(args) != 2 {
		return
	}
	shard, err := strconv.Atoi(args[1])
	if err != nil {
		t.Fatal(err)
	}
	lw, err := dist.StartListenWorker(args[0], shard)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(dist.ListeningPrefix + lw.Addr())
	t.Fatal(lw.Serve())
}

// startWorkerProc pre-starts one resident worker OS process (the test
// binary re-executed as TestResidentWorkerProcess) pinned to the given
// shard, and returns its announced dialable address.
func startWorkerProc(t *testing.T, shard int) (string, *exec.Cmd) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestResidentWorkerProcess$", "--", "tcp:127.0.0.1:0", strconv.Itoa(shard))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	select {
	case line := <-lines:
		addr, ok := strings.CutPrefix(line, dist.ListeningPrefix)
		if !ok {
			t.Fatalf("worker %d announcement = %q", shard, line)
		}
		return addr, cmd
	case <-time.After(10 * time.Second):
		t.Fatalf("worker %d never announced its listen address", shard)
		return "", nil
	}
}

// TestDistConnectProcessWorkers runs an APSP through a coordinator
// connected to two pre-started worker processes over TCP and requires
// byte-identical distances and Metrics against the legacy oracle.
func TestDistConnectProcessWorkers(t *testing.T) {
	g := hybrid.GridGraph(6, 6)
	oracle, err := hybrid.New(g, hybrid.WithSeed(42), hybrid.WithEngine(hybrid.EngineLegacy)).APSP()
	if err != nil {
		t.Fatalf("legacy: %v", err)
	}

	addr0, _ := startWorkerProc(t, 0)
	addr1, _ := startWorkerProc(t, 1)
	res, err := hybrid.New(g, hybrid.WithSeed(42), hybrid.WithEngine(hybrid.EngineDist),
		hybrid.WithDistConnect(addr0, addr1)).APSP()
	if err != nil {
		t.Fatalf("connect-mode dist: %v", err)
	}
	if !reflect.DeepEqual(oracle.Dist, res.Dist) {
		t.Error("connect-mode distances diverge from legacy oracle")
	}
	if oracle.Metrics != res.Metrics {
		t.Errorf("connect-mode metrics differ: legacy %+v dist %+v", oracle.Metrics, res.Metrics)
	}
}

// TestDistConnectRemoteKillRedial is the connect-mode kill-replay: the
// KillWorker fault severs the connection to a remote worker process
// mid-run, at round 80 of the run's first stretch of global rounds
// (73–115). The process itself survives and keeps listening, so the
// coordinator must re-dial it, replay the pending request, and finish
// byte-identical to the oracle.
func TestDistConnectRemoteKillRedial(t *testing.T) {
	g := hybrid.GridGraph(6, 6)
	oracle, err := hybrid.New(g, hybrid.WithSeed(42), hybrid.WithEngine(hybrid.EngineLegacy)).APSP()
	if err != nil {
		t.Fatalf("legacy: %v", err)
	}

	addr0, _ := startWorkerProc(t, 0)
	addr1, _ := startWorkerProc(t, 1)
	faults := chaos.NewPlan().KillWorker(1, 80)
	opts := dist.WithFaults(faults)
	res, err := hybrid.New(g, hybrid.WithSeed(42), hybrid.WithEngine(hybrid.EngineDist),
		hybrid.WithDistOptions(opts), hybrid.WithDistConnect(addr0, addr1)).APSP()
	if err != nil {
		t.Fatalf("connect-mode dist with kill: %v", err)
	}
	st := faults.Stats()
	if st.Killed != 1 || st.Respawns < 1 {
		t.Fatalf("fault stats %+v, want 1 kill and >= 1 re-dial", st)
	}
	if !reflect.DeepEqual(oracle.Dist, res.Dist) {
		t.Error("kill + re-dial run diverges from legacy oracle")
	}
	if oracle.Metrics != res.Metrics {
		t.Errorf("kill + re-dial metrics differ: legacy %+v dist %+v", oracle.Metrics, res.Metrics)
	}
}

// TestDistConnectWorkerProcessGone kills a remote worker PROCESS mid-run
// (not just its connection). The coordinator's re-dial has nowhere to go,
// so the run must end promptly — either a clean "worker gone" abort or,
// if the kill raced past the last global round, a byte-identical success.
// What it must never do is hang.
func TestDistConnectWorkerProcessGone(t *testing.T) {
	g := hybrid.GridGraph(6, 6)
	oracle, err := hybrid.New(g, hybrid.WithSeed(42), hybrid.WithEngine(hybrid.EngineLegacy)).APSP()
	if err != nil {
		t.Fatalf("legacy: %v", err)
	}

	addr0, _ := startWorkerProc(t, 0)
	addr1, proc1 := startWorkerProc(t, 1)
	// Sever the connection at a mid-run round AND take the process down,
	// so the re-dial path finds a dead address.
	faults := chaos.NewPlan().KillWorker(1, 80)
	opts := dist.WithFaults(faults)
	opts.FrameTimeout = 2 * time.Second
	go func() {
		// Kill the OS process as soon as the fault plan has severed the
		// connection; until then the run proceeds normally.
		for i := 0; i < 400; i++ {
			if faults.Stats().Killed > 0 {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		proc1.Process.Kill()
	}()

	type result struct {
		res *hybrid.APSPResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := hybrid.New(g, hybrid.WithSeed(42), hybrid.WithEngine(hybrid.EngineDist),
			hybrid.WithDistOptions(opts), hybrid.WithDistConnect(addr0, addr1)).APSP()
		done <- result{res, err}
	}()
	select {
	case r := <-done:
		if r.err == nil {
			// The process kill raced past the failure window (the re-dial
			// won, or the run finished first): the result must be exact.
			if !reflect.DeepEqual(oracle.Dist, r.res.Dist) {
				t.Error("run succeeded despite process kill but diverges from oracle")
			}
			return
		}
		if !strings.Contains(r.err.Error(), "dist:") {
			t.Fatalf("err = %v, want a dist-layer abort", r.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator hung after remote worker process died")
	}
}

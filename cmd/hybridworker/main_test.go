package main

import (
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/wire"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{},                                    // no listen spec
		{"-shard", "0"},                       // no listen spec
		{"-listen", "tcp::0", "-shard", "-2"}, // negative shard
		{"-bogus"},                            // unknown flag
		{"-addr", "unix:/x", "-shard", "0"},   // the removed dial mode
	}
	for _, args := range cases {
		var out, sb strings.Builder
		if code := run(args, &out, &sb); code != 2 {
			t.Fatalf("run(%v) = %d, want 2 (stderr: %s)", args, code, sb.String())
		}
	}
}

func TestRunListenBadSpec(t *testing.T) {
	var out, sb strings.Builder
	if code := run([]string{"-listen", "bogus-no-prefix"}, &out, &sb); code != 1 {
		t.Fatalf("run = %d, want 1 (stderr: %s)", code, sb.String())
	}
	if !strings.Contains(sb.String(), "transport prefix") {
		t.Fatalf("stderr = %q", sb.String())
	}
}

// TestRunListenMode starts the binary entrypoint in listen mode, dials it
// as a coordinator would, and checks the Join announcement (unpinned
// worker => AnyShard) plus a Hello answered with a HelloAck over the served
// connection.
func TestRunListenMode(t *testing.T) {
	out := make(chan string, 1)
	pr, pw := newPipeWriter(out)
	defer pr.Close()
	go run([]string{"-listen", "tcp:127.0.0.1:0"}, pw, os.Stderr)

	var addr string
	select {
	case line := <-out:
		var ok bool
		if addr, ok = strings.CutPrefix(line, dist.ListeningPrefix); !ok {
			t.Fatalf("announcement line = %q", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no listening announcement")
	}

	conn, err := net.DialTimeout("tcp", strings.TrimPrefix(addr, "tcp:"), 5*time.Second)
	if err != nil {
		t.Fatalf("dialing announced address %s: %v", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	join, err := wire.ReadFrame(conn)
	if err != nil || join.Type != wire.FrameJoin {
		t.Fatalf("join frame = %+v, %v", join, err)
	}
	if shard, err := wire.DecodeHandshake(join.Payload); err != nil || shard != wire.AnyShard {
		t.Fatalf("join handshake = %d, %v", shard, err)
	}
	hello := wire.AppendHello(nil, wire.Hello{N: 8, Shard: 1, Lo: 4, Hi: 8})
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameHello, Shard: 1, Payload: hello})); err != nil {
		t.Fatal(err)
	}
	ack, err := wire.ReadFrame(conn)
	if err != nil || ack.Type != wire.FrameHelloAck {
		t.Fatalf("hello answered with %+v, %v", ack, err)
	}
	if shard, err := wire.DecodeHandshake(ack.Payload); err != nil || shard != 1 {
		t.Fatalf("hello ack = shard %d, %v", shard, err)
	}
	// A Shutdown frame ends the connection, not the resident worker: it
	// goes back to accepting, so a second coordinator can attach.
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameShutdown})); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(conn); err == nil {
		t.Fatalf("connection still served after shutdown: got a %v frame", f.Type)
	}
	conn.Close()
	conn2, err := net.DialTimeout("tcp", strings.TrimPrefix(addr, "tcp:"), 5*time.Second)
	if err != nil {
		t.Fatalf("re-dial after drop: %v", err)
	}
	defer conn2.Close()
	conn2.SetDeadline(time.Now().Add(5 * time.Second))
	if join2, err := wire.ReadFrame(conn2); err != nil || join2.Type != wire.FrameJoin {
		t.Fatalf("second join frame = %+v, %v", join2, err)
	}
}

// TestRunListenSIGTERM checks the daemon contract: a listen-mode worker
// hit with SIGTERM closes its listener and exits 0, not via kill.
func TestRunListenSIGTERM(t *testing.T) {
	out := make(chan string, 1)
	pr, pw := newPipeWriter(out)
	defer pr.Close()
	var sb syncBuilder
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-listen", "tcp:127.0.0.1:0"}, pw, &sb)
	}()

	select {
	case line := <-out:
		if !strings.HasPrefix(line, dist.ListeningPrefix) {
			t.Fatalf("announcement line = %q", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no listening announcement")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("worker exited %d, want 0 (stderr: %s)", code, sb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after SIGTERM")
	}
	if !strings.Contains(sb.String(), "shutting down") {
		t.Fatalf("stderr = %q, want shutdown notice", sb.String())
	}
}

// syncBuilder is a mutex-guarded strings.Builder safe to share between the
// worker goroutine and the test's assertions.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// newPipeWriter returns a pipe whose first line is delivered on lines.
func newPipeWriter(lines chan<- string) (*os.File, *os.File) {
	pr, pw, err := os.Pipe()
	if err != nil {
		panic(err)
	}
	go func() {
		buf := make([]byte, 256)
		n, _ := pr.Read(buf)
		lines <- strings.TrimSpace(string(buf[:n]))
	}()
	return pr, pw
}

package dist

import (
	"fmt"
	"net"
	"strings"
	"time"
)

// Addresses are scheme-prefixed strings ("unix:/path/sock",
// "tcp:127.0.0.1:4242") so they survive a trip through a child process's
// environment and a command line. Workers listen, coordinators dial: unix
// sockets for the children a coordinator starts on its own box, TCP for
// workers on other machines.

// advertiseTCP turns a TCP listener's bound address into the
// scheme-prefixed address the worker announces. A wildcard bind
// ("0.0.0.0:9100", ":9100") is not dialable as written, so it is announced
// as loopback; a coordinator on another machine is given the worker's
// routable address by its operator.
func advertiseTCP(ln net.Listener) string {
	if ta, ok := ln.Addr().(*net.TCPAddr); ok && (ta.IP == nil || ta.IP.IsUnspecified()) {
		return fmt.Sprintf("tcp:127.0.0.1:%d", ta.Port)
	}
	return "tcp:" + ln.Addr().String()
}

// listenSpec opens a worker-side listen socket from a scheme-prefixed
// spec ("tcp::9000", "tcp:10.0.0.7:9000", "unix:/path/sock") and returns
// the listener plus its bound, dialable address in the same notation
// (useful when the spec asked for port 0).
func listenSpec(spec string) (net.Listener, string, error) {
	switch {
	case strings.HasPrefix(spec, "tcp:"):
		ln, err := net.Listen("tcp", strings.TrimPrefix(spec, "tcp:"))
		if err != nil {
			return nil, "", fmt.Errorf("dist: listen %s: %w", spec, err)
		}
		return ln, advertiseTCP(ln), nil
	case strings.HasPrefix(spec, "unix:"):
		path := strings.TrimPrefix(spec, "unix:")
		ln, err := net.Listen("unix", path)
		if err != nil {
			return nil, "", fmt.Errorf("dist: listen %s: %w", spec, err)
		}
		return ln, "unix:" + path, nil
	default:
		return nil, "", fmt.Errorf("dist: listen spec %q has no transport prefix", spec)
	}
}

// dialAddr connects a coordinator to a scheme-prefixed worker address,
// giving up at deadline.
func dialAddr(addr string, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return d.Dial("unix", strings.TrimPrefix(addr, "unix:"))
	case strings.HasPrefix(addr, "tcp:"):
		return d.Dial("tcp", strings.TrimPrefix(addr, "tcp:"))
	default:
		return nil, fmt.Errorf("dist: address %q has no transport prefix", addr)
	}
}

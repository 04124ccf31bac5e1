package main

import (
	"net"
	"net/http"
	"strings"
	"testing"

	"intellog/internal/logging"
)

// TestListenBindsBothBeforeServing pins the boot order: both ports accept
// a connection as soon as listen returns, before any Serve loop or
// handler exists. With the HTTP server started first (the old order)
// /healthz could answer while the stream port still refused dials.
func TestListenBindsBothBeforeServing(t *testing.T) {
	httpLn, streamLn, err := listen("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer httpLn.Close()
	defer streamLn.Close()
	for name, ln := range map[string]net.Listener{"http": httpLn, "stream": streamLn} {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("%s: dial before serving: %v", name, err)
		}
		c.Close()
	}
}

// TestListenStreamFailureReleasesHTTP checks the error path: a stream
// address that cannot be bound fails the boot and leaves no listener
// behind.
func TestListenStreamFailureReleasesHTTP(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	if _, _, err := listen(addr, taken.Addr().String()); err == nil {
		t.Fatal("listen succeeded on a taken stream port")
	}
	again, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("http port still bound after failed boot: %v", err)
	}
	again.Close()

	httpLn, streamLn, err := listen("127.0.0.1:0", "")
	if err != nil || streamLn != nil {
		t.Fatalf("no stream address: ln=%v err=%v", streamLn, err)
	}
	httpLn.Close()
}

// TestDefaultFrameworkValidated: every framework the parser knows is
// accepted and named in -framework's help; any other name is refused
// instead of being read with the Hadoop layout.
func TestDefaultFrameworkValidated(t *testing.T) {
	help := frameworkNames()
	for _, fw := range logging.Frameworks {
		if got, err := defaultFramework(string(fw)); err != nil || got != fw {
			t.Errorf("defaultFramework(%q) = %q, %v", fw, got, err)
		}
		if !strings.Contains(help, string(fw)) {
			t.Errorf("help %q does not name %q", help, fw)
		}
	}
	for _, name := range []string{"", "hadoop", "Spark", "bgl"} {
		if _, err := defaultFramework(name); err == nil {
			t.Errorf("defaultFramework(%q) accepted an unknown name", name)
		}
	}
}

// TestHTTPServerBoundsHeaderRead: the daemon's HTTP server gives up on a
// peer that never finishes its request headers, instead of pinning the
// connection's goroutine forever.
func TestHTTPServerBoundsHeaderRead(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.Handler == nil {
		t.Fatalf("server = {Handler: %v, ReadHeaderTimeout: %v}, want a handler and a positive header bound",
			hs.Handler, hs.ReadHeaderTimeout)
	}
}

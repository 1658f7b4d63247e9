package main

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"testing"
	"time"

	"wwb/internal/fleet"
)

// TestGracefulShutdownDrainsInFlight covers the SIGTERM path through
// the serve helper: with a slow request in flight, cancelling the
// serve context must (a) let that request finish with a 200 and
// (b) refuse new connections, all within the drain window.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	h := fleet.WithMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		w.WriteHeader(http.StatusOK)
	}), fleet.MiddlewareConfig{})
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	srv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- fleet.Serve(ctx, srv, ln, 5*time.Second) }()

	// Put a slow request in flight.
	slowStatus := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			slowStatus <- -1
			return
		}
		resp.Body.Close()
		slowStatus <- resp.StatusCode
	}()
	<-entered

	// Trigger shutdown (production: SIGTERM via signal.NotifyContext).
	cancel()

	// New connections must start failing: Shutdown closes the listener
	// first, so poll briefly for the refusal to take effect.
	refused := false
	for i := 0; i < 100; i++ {
		c := &http.Client{Timeout: 200 * time.Millisecond}
		resp, err := c.Get("http://" + addr + "/healthz")
		if err != nil {
			refused = true
			break
		}
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !refused {
		t.Error("new connections still accepted after shutdown began")
	}

	// The in-flight request must still complete successfully.
	close(release)
	if status := <-slowStatus; status != http.StatusOK {
		t.Errorf("in-flight request: status %d, want 200", status)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("serve returned %v after graceful drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after drain")
	}
}

// TestServeReturnsListenerError pins the non-signal exit path: if the
// listener dies underneath the server, serve surfaces the error
// instead of hanging on the context.
func TestServeReturnsListenerError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.NewServeMux()}
	ctx := context.Background()
	errCh := make(chan error, 1)
	go func() { errCh <- fleet.Serve(ctx, srv, ln, time.Second) }()
	ln.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("serve returned nil after the listener was closed externally")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not notice the dead listener")
	}
}

// Command ssos-serve is the stabilization-as-a-service daemon: a
// long-lived HTTP server hosting many concurrent fault-injected
// simulation sessions over the same deterministic machinery the batch
// CLIs drive. Create a machine or cluster session from a named guest
// image, step it, inject faults, fetch metrics, and stream the live
// event feed over SSE.
//
// Usage:
//
//	ssos-serve -addr 127.0.0.1:8023 -max-sessions 1024 -idle-ops 4096
//
// Quickstart (see README "ssos-serve" for the full walkthrough):
//
//	curl -s localhost:8023/api/images
//	id=$(curl -s -X POST localhost:8023/api/sessions \
//	       -d '{"image":"reinstall","seed":7}' | sed -n 's/.*"id": "\(s[0-9]*\)".*/\1/p')
//	curl -s -X POST localhost:8023/api/sessions/$id/run -d '{"steps":100000}'
//	curl -s -X POST localhost:8023/api/sessions/$id/fault -d '{"kind":"os-blast"}'
//	curl -s localhost:8023/api/sessions/$id/events
//
// The events endpoint returns JSONL byte-identical to what
// `ssos-run -events-out` writes for the same image, seed and command
// sequence — CI's serve-smoke job compares them with cmp(1).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ssos/internal/pool"
	"ssos/internal/serve"
)

// Server timeouts bound how long a client that stalls or idles can hold
// a connection. WriteTimeout stays unset: SSE event streams are
// long-lived responses.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8023", "listen address (use :0 for an ephemeral port; the actual address is printed)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off); keep it loopback-only")
	maxSessions := flag.Int("max-sessions", serve.DefaultMaxSessions, "concurrent session cap")
	idleOps := flag.Int("idle-ops", serve.DefaultIdleOps, "evict sessions untouched for this many mutating operations (negative disables)")
	workers := flag.Int("workers", 0, "session commands that run at once, and cluster fan-out goroutines (0 = GOMAXPROCS); per-session results are identical for any setting")
	flag.Parse()
	pool.Workers = *workers

	reg := serve.NewRegistry(serve.Options{
		MaxSessions: *maxSessions,
		IdleOps:     *idleOps,
		Workers:     *workers,
	})
	srv := &http.Server{
		Handler:           serve.NewServer(reg),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssos-serve:", err)
		os.Exit(1)
	}
	// Scripts parse this line to find an ephemeral port; keep it stable.
	fmt.Printf("ssos-serve: listening on %s\n", ln.Addr())

	// The pprof endpoints live on their own listener (off by default),
	// mirroring the batch CLIs' -cpuprofile/-memprofile story for a live
	// daemon without exposing profiling on the API address. An explicit
	// mux keeps the registrations intentional rather than inherited from
	// http.DefaultServeMux.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssos-serve:", err)
			os.Exit(1)
		}
		fmt.Printf("ssos-serve: debug listening on %s\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				fmt.Fprintln(os.Stderr, "ssos-serve: debug listener:", err)
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("ssos-serve: %v, shutting down\n", s)
	case err := <-done:
		fmt.Fprintln(os.Stderr, "ssos-serve:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx) //nolint:errcheck // best-effort drain; registry shutdown follows
	if err := reg.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ssos-serve: teardown cut short:", err)
		os.Exit(1)
	}
}

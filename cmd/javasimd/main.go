// Command javasimd is the simulation serving daemon: a long-running
// HTTP service that accepts declarative plan JSON, executes it on a
// shared engine worker pool, streams progress as server-sent events,
// and serves the rendered artifacts. With -store, the engine's result
// cache is backed by a content-addressed on-disk store, so no plan any
// client has ever submitted is simulated twice — across requests,
// daemons, or restarts. Every simulation runs in the daemon's own
// process, on the engine's goroutine pool bounded by -parallel.
// Submitted plans may target any registered machine model (the plan's
// Machine field or a per-scenario override); unknown model names are
// rejected at plan load, before any simulation runs, and the selected
// model is part of every result's cache fingerprint.
//
// Usage:
//
//	javasimd [-addr :8077] [-store DIR] [-parallel N] [-cache N]
//	         [-drain 30s] [-max-jobs N] [-v]
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503, running
// plans get -drain to finish (then they are canceled), and the store is
// flushed before exit. See docs/serving.md for the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"javasim"
	"javasim/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8077", "listen address")
		storeDir = flag.String("store", "", "content-addressed result store directory (empty = memory-only)")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cache    = flag.Int("cache", 0, "in-memory result cache and artifact memo entries, each (0 = default)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for running plans")
		maxJobs  = flag.Int("max-jobs", 0, "max concurrently running plans (0 = default)")
		verbose  = flag.Bool("v", false, "log requests and job progress")
	)
	flag.Parse()

	logf := func(string, ...any) {}
	if *verbose {
		logger := log.New(os.Stderr, "javasimd: ", log.LstdFlags)
		logf = logger.Printf
	}

	opts := []javasim.Option{}
	if *parallel > 0 {
		opts = append(opts, javasim.WithParallelism(*parallel))
	}
	if *cache > 0 {
		opts = append(opts, javasim.WithCache(*cache))
	}

	var st *javasim.Store
	if *storeDir != "" {
		var err error
		st, err = javasim.OpenStore(*storeDir)
		if err != nil {
			log.Fatalf("javasimd: %v", err)
		}
		opts = append(opts, javasim.WithDiskCache(st))
		logf("store: %s (%d entries)", st.Dir(), st.Len())
	}

	eng := javasim.NewEngine(opts...)
	srv, err := serve.New(serve.Options{
		Engine:  eng,
		Store:   st,
		MaxJobs: *maxJobs,
		Logf:    logf,
	})
	if err != nil {
		log.Fatalf("javasimd: %v", err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "javasimd: listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "javasimd: %v: draining (deadline %v)\n", sig, *drain)
	case err := <-errc:
		log.Fatalf("javasimd: %v", err)
	}

	// Shutdown order: stop accepting and drain plan jobs, then close
	// HTTP connections, then make every completed result durable.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("javasimd: drain: %v", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("javasimd: http shutdown: %v", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			log.Fatalf("javasimd: store: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr, "javasimd: drained, exiting")
}

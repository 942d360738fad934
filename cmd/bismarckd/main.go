// Command bismarckd is the multi-session Bismarck daemon: it serves the
// declarative statement grammar over a line-oriented TCP protocol, sharing
// one file catalog across every connection behind the server package's
// per-model locking. Every TRAIN, PREDICT and EVALUATE runs as a job, at
// most -workers at once: `TO TRAIN ... ASYNC` returns its job id at once,
// a sync statement waits for its job (SHOW JOBS / WAIT JOB <id> / CANCEL
// JOB <id> see both).
//
//	bismarckd -data ./db -listen 127.0.0.1:7077 -workers 4
//
// Connect with `bismarck -connect 127.0.0.1:7077` or any line tool:
//
//	$ nc 127.0.0.1 7077
//	| bismarckd ready — statements end with ';'
//	OK
//	SELECT vec, label FROM papers TO TRAIN svm INTO m ASYNC;
//	| job 1 queued: TRAIN svm INTO "m" (SHOW JOBS / WAIT JOB 1)
//	OK
//
// Inline point-PREDICT is served from the hot-model cache, either as a
// statement or pipelined many-at-a-time with "@<id> <stmt>" frames
// (answered "@<id> OK <scores>" / "@<id> ERR <msg>", out of order); a
// client can negotiate the length-prefixed binary encoding with "@bin".
// The -serve-inflight / -serve-queue flags size the plane's global
// admission control and -serve-model-inflight / -serve-model-queue one
// model's share of it: past a queue the daemon sheds with "ERR busy: ...
// retry_after_ms=<hint>". Persisted models are pre-decoded into the serving
// cache at start, and SHOW SERVING reports the per-model serving counters.
//
// On SIGINT/SIGTERM the daemon stops accepting, cancels still-queued
// jobs, lets running jobs finish and commit, and saves the catalog before
// exiting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"bismarck/internal/engine"
	"bismarck/internal/server"
)

func main() {
	var (
		dataDir  = flag.String("data", "./bismarck-data", "catalog directory")
		listen   = flag.String("listen", "127.0.0.1:7077", "TCP listen address")
		workers  = flag.Int("workers", 0, "TRAIN/PREDICT/EVALUATE jobs run at once, sync or ASYNC; 256 more queue before ERR busy (0 = GOMAXPROCS, max 8)")
		epochs   = flag.Int("epochs", 0, "default training epochs when a statement sets none (0 = 20)")
		alpha    = flag.Float64("alpha", 0, "default initial step size when a statement sets none (0 = task preference)")
		serveIn  = flag.Int("serve-inflight", 0, "concurrent point-PREDICT scoring slots (0 = GOMAXPROCS)")
		serveQ   = flag.Int("serve-queue", 0, "point-PREDICT waiters beyond the slots before shedding with ERR busy (0 = 4x slots)")
		serveMIn = flag.Int("serve-model-inflight", 0, "one model's concurrent scoring slots (0 = the global slots)")
		serveMQ  = flag.Int("serve-model-queue", 0, "one model's waiters before shedding (0 = half the global queue)")
		executor = flag.Bool("executor", false, "run as a shard executor: in-memory catalog, no persistence — host training shards shipped by WITH executors=... coordinators")
		execIn   = flag.Int("exec-inflight", 0, "concurrent executor shard-op slots (0 = GOMAXPROCS)")
		execQ    = flag.Int("exec-queue", 0, "executor shard-op waiters before shedding with ERR busy (0 = 4x slots)")
	)
	flag.Parse()
	if err := run(*dataDir, *listen, *workers, *epochs, *alpha,
		*serveIn, *serveQ, *serveMIn, *serveMQ,
		*executor, *execIn, *execQ); err != nil {
		fmt.Fprintf(os.Stderr, "bismarckd: %v\n", err)
		os.Exit(1)
	}
}

func run(dataDir, listen string, workers, epochs int, alpha float64, serveIn, serveQ, serveMIn, serveMQ int, executor bool, execIn, execQ int) error {
	// Executor mode is stateless by design: shard heaps live only on
	// their coordinator connections, so there is nothing to persist — an
	// in-memory catalog keeps a dead executor from leaving artifacts a
	// restart would have to recover.
	var cat *engine.Catalog
	var err error
	if executor {
		cat = engine.NewCatalog()
	} else {
		cat, err = engine.OpenFileCatalog(dataDir, 0)
		if err != nil {
			return err
		}
	}
	// Opening doubled as crash recovery: say what it found (swaps rolled
	// forward, orphan shadows swept, tables it refused to resurrect).
	if r := cat.Recovery; !r.Clean() {
		for _, name := range r.Completed {
			fmt.Printf("bismarckd: recovery: completed committed swap of %q\n", name)
		}
		for name, reason := range r.Skipped {
			fmt.Printf("bismarckd: recovery: not registering %q (%s)\n", name, reason)
		}
		for _, f := range r.Swept {
			fmt.Printf("bismarckd: recovery: swept %s\n", f)
		}
		for name, what := range r.Repaired {
			fmt.Printf("bismarckd: recovery: repaired %q (%s)\n", name, what)
		}
		for name, pages := range r.Quarantined {
			fmt.Printf("bismarckd: recovery: %q has %d quarantined pages %v — reads fail until CHECK TABLE passes or the table is rewritten; retry WITH degraded=true to skip them\n",
				name, len(pages), pages)
		}
	}
	mgr := server.NewManager(cat, server.Options{Workers: workers, Epochs: epochs, Alpha: alpha,
		ServeInflight: serveIn, ServeQueue: serveQ,
		ServeModelInflight: serveMIn, ServeModelQueue: serveMQ,
		ExecInflight: execIn, ExecQueue: execQ})
	srv := server.NewTCPServer(mgr)

	// Warm-start: decode every persisted model into the serving cache before
	// accepting connections, so the first PREDICT after a restart is a cache
	// hit instead of a decode behind the fill mutex. Executor mode starts
	// with an empty in-memory catalog — nothing to warm.
	if !executor {
		if warmed := mgr.Plane().Warm(); len(warmed) > 0 {
			fmt.Printf("bismarckd: warmed %d model(s) into the serving cache: %v\n", len(warmed), warmed)
		}
	}

	lis, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	if executor {
		fmt.Printf("bismarckd: shard executor on %s (in-memory, nothing persisted)\n", lis.Addr())
	} else {
		fmt.Printf("bismarckd: serving catalog %q on %s\n", dataDir, lis.Addr())
	}

	// Shutdown order matters: stop the wire first (no new statements, and
	// a connection's running statement stops before its commit), let
	// accepted jobs finish (their saves still take the model locks), then
	// persist and close the catalog.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("bismarckd: %v — draining jobs and saving catalog\n", s)
		srv.Close()
	}()

	serveErr := srv.Serve(lis)
	// Serve returns as soon as the listener dies — on shutdown or on a
	// fatal accept error. Either way the teardown is the same: srv.Close
	// (idempotent) waits for in-flight connection handlers, then mgr.Close
	// drains the jobs and saves and closes the catalog, so nothing is
	// still mutating heap files and every model a client was told about
	// reaches catalog.json.
	srv.Close()
	if err := errors.Join(serveErr, mgr.Close()); err != nil {
		return err
	}
	fmt.Println("bismarckd: bye")
	return nil
}

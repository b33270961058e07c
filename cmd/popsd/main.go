// Command popsd serves the optimization protocol as a long-running
// JSON HTTP daemon over the concurrent batch engine.
//
// Usage:
//
//	popsd [-addr :8080] [-workers N] [-pprof-addr addr]
//	      [-log-level info] [-log-format text]
//	      [-data-dir dir] [-flush-interval 1s]
//
// Endpoints (see internal/engine's HTTP layer):
//
//	GET  /healthz
//	GET  /metrics
//	POST /v1/optimize   {"circuit":"c432","ratio":1.4}
//	POST /v1/sweep      {"circuit":"c880","points":9}
//	POST /v1/suite      {"benchmarks":["fpd","c432"],"ratios":[1.2,2.0]}
//	GET  /v1/jobs
//	GET  /v1/jobs/{id}
//
// POSTs enqueue async jobs and answer 202 with a job ID for polling;
// add "wait": true to block for the result. Every POST also accepts
// "leakage": true to run the multi-Vt leakage pass after sizing and
// report the dynamic/leakage/total power split, and optimize/sweep
// take "bench" (suite takes "benches") — a raw ISCAS .bench netlist
// source — in place of a named benchmark, validated behind the
// engine's hardened ingestion pass. See docs/API.md for the full
// request/response reference.
//
// Observability: GET /metrics exposes the engine's instruments in the
// Prometheus text format, every response carries an X-Request-ID that
// also lands in the submitted job's record, and the daemon logs
// structured access/job lines on stderr (-log-level debug|info|warn|
// error, -log-format text|json).
//
// Durability: -data-dir names a directory where every finished
// optimization result is persisted (content-addressed, checksummed,
// write-behind batched on -flush-interval) and accepted jobs are
// journaled. A restarted daemon serves previously computed results
// from disk without recomputing and re-submits journaled jobs that
// never finished. With -data-dir unset the daemon is memory-only,
// exactly as before. See the "Durability" section of
// docs/ARCHITECTURE.md.
//
// -pprof-addr opens an additional net/http/pprof debug listener (e.g.
// "localhost:6060") so a running daemon can be profiled in place; it
// is off by default and should never be exposed publicly. A bad
// address fails startup instead of degrading silently.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// options carries the parsed command line into run.
type options struct {
	addr          string
	pprofAddr     string
	workers       int
	logLevel      string
	logFormat     string
	dataDir       string
	flushInterval time.Duration
}

// shutdownTimeout bounds the graceful drain of both listeners and the
// async job store.
const shutdownTimeout = 15 * time.Second

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", ":8080", "listen address")
	flag.IntVar(&opts.workers, "workers", runtime.GOMAXPROCS(0), "worker-pool size")
	flag.StringVar(&opts.pprofAddr, "pprof-addr", "", "listen address of the opt-in net/http/pprof debug endpoint (empty: disabled)")
	flag.StringVar(&opts.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.StringVar(&opts.logFormat, "log-format", "text", "log line encoding: text or json")
	flag.StringVar(&opts.dataDir, "data-dir", "", "durability directory: persisted results and the job journal (empty: memory-only)")
	flag.DurationVar(&opts.flushInterval, "flush-interval", time.Second, "write-behind flush cadence of the result store (with -data-dir)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, opts, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "popsd:", err)
		os.Exit(1)
	}
}

// pprofMux mounts the standard net/http/pprof handlers on a dedicated
// mux, so the debug listener exposes exactly the profiling routes and
// nothing that may have been registered on http.DefaultServeMux.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// durability bundles the -data-dir machinery: the on-disk result
// store behind its write-behind batcher, and the job journal. A nil
// *durability (no -data-dir) leaves the daemon memory-only.
type durability struct {
	disk    *store.Disk
	batcher *store.Batcher
	journal *store.Journal
}

// Close flushes and releases the durable tier. Order matters: the
// batcher's final flush must land before the disk store closes, and
// the journal closes first so no terminal record races the teardown.
func (d *durability) Close() {
	if d == nil {
		return
	}
	d.journal.Close()
	d.batcher.Close()
	d.disk.Close()
}

// openDurability builds the durable tier under dataDir: persisted
// results in dataDir/results (batched behind flushInterval) and the
// job journal at dataDir/jobs.journal. The returned entries are the
// journal's surviving records, to be folded by Server.Replay once the
// server exists. Store write failures are counted on the engine's
// metrics via the late-bound eng pointer — the engine is constructed
// after the batcher because the batcher is part of its Config.
func openDurability(dataDir string, flushInterval time.Duration, logger *slog.Logger, eng **engine.Engine) (*durability, []store.JournalEntry, error) {
	disk, err := store.OpenDisk(filepath.Join(dataDir, "results"), logger)
	if err != nil {
		return nil, nil, fmt.Errorf("result store: %w", err)
	}
	batcher := store.NewBatcher(disk, store.BatcherOptions{
		FlushInterval: flushInterval,
		Logger:        logger,
		OnError: func(key string, err error) {
			if e := *eng; e != nil {
				e.Metrics().StoreErrorHook()(key, err)
			}
		},
	})
	journal, entries, err := store.OpenJournal(filepath.Join(dataDir, "jobs.journal"), logger)
	if err != nil {
		batcher.Close()
		disk.Close()
		return nil, nil, fmt.Errorf("job journal: %w", err)
	}
	return &durability{disk: disk, batcher: batcher, journal: journal}, entries, nil
}

// run builds the engine and both listeners, then serves until ctx is
// cancelled. Listeners are opened synchronously so a bad -addr or
// -pprof-addr fails startup with a clear error instead of a log line
// from a doomed goroutine; likewise an unusable -data-dir.
func run(ctx context.Context, opts options, logw io.Writer) error {
	logger, err := obs.NewLogger(logw, opts.logLevel, opts.logFormat)
	if err != nil {
		return err
	}

	cfg := engine.Config{Workers: opts.workers}
	var (
		eng     *engine.Engine
		dur     *durability
		entries []store.JournalEntry
	)
	if opts.dataDir != "" {
		dur, entries, err = openDurability(opts.dataDir, opts.flushInterval, logger, &eng)
		if err != nil {
			return err
		}
		defer dur.Close()
		cfg.Results = dur.batcher
		logger.Info("durable store open",
			"dir", opts.dataDir, "results", dur.disk.Len(), "journal_records", len(entries))
	}

	eng, err = engine.New(cfg)
	if err != nil {
		return err
	}
	srvOpts := []engine.ServerOption{engine.WithLogger(logger)}
	if dur != nil {
		srvOpts = append(srvOpts, engine.WithJournal(dur.journal))
	}
	srv := engine.NewServer(ctx, eng, srvOpts...)
	if dur != nil {
		n, err := srv.Replay(entries)
		if err != nil {
			// Replay is best-effort durability; a failure to re-submit or
			// compact must not keep the daemon down.
			logger.Warn("job replay incomplete", "error", err.Error())
		}
		if n > 0 {
			logger.Info("replayed unfinished jobs", "count", n)
		}
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	var pprofLn net.Listener
	if opts.pprofAddr != "" {
		pprofLn, err = net.Listen("tcp", opts.pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
	}
	return serve(ctx, logger, eng, srv, ln, pprofLn)
}

// serve runs the API server (and the optional pprof server) on
// already-open listeners until ctx is cancelled, then drains both
// gracefully under one shared shutdownTimeout deadline and closes the
// job store. Tests drive it directly with ephemeral-port listeners.
func serve(ctx context.Context, logger *slog.Logger, eng *engine.Engine, srv *engine.Server, ln, pprofLn net.Listener) error {
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", ln.Addr().String(), "workers", eng.Workers())
		errc <- httpSrv.Serve(ln)
	}()

	var pprofSrv *http.Server
	if pprofLn != nil {
		pprofSrv = &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof debug endpoint", "addr", pprofLn.Addr().String())
			if err := pprofSrv.Serve(pprofLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof listener failed", "error", err.Error())
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if pprofSrv != nil {
		// Graceful Shutdown under the same deadline as the API server: an
		// in-flight profile download completes when it can, and the shared
		// deadline still caps the total drain so a hung profiler cannot
		// stall the exit.
		if err := pprofSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("pprof shutdown", "error", err.Error())
		}
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	srv.Shutdown() // drain async jobs
	return nil
}

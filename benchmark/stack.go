package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// stack is the program under test, wired like `popsd -data-dir`: the
// engine's result tier is a disk store behind the write-behind batcher,
// accepted jobs go to the fsync'd journal, and the HTTP service listens
// on loopback. The client allows at most two connections.
type stack struct {
	dir     string
	disk    *store.Disk
	batcher *store.Batcher
	journal *store.Journal
	eng     *engine.Engine
	srv     *engine.Server
	httpSrv *http.Server
	served  chan error
	base    string
	client  *http.Client
}

// openStack builds the stack in dir and warms it up. A non-nil tracer
// wraps the result store and the HTTP handler in timing decorators.
func openStack(dir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	var err error
	if st.disk, err = store.OpenDisk(filepath.Join(dir, "results"), obs.Discard()); err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	// The batcher exists before the engine (it is part of the engine's
	// Config), so its error hook reaches the engine through a pointer
	// set once the engine is built, as popsd does.
	var engPtr atomic.Pointer[engine.Engine]
	st.batcher = store.NewBatcher(st.disk, store.BatcherOptions{
		Logger: obs.Discard(),
		OnError: func(key string, err error) {
			if e := engPtr.Load(); e != nil {
				e.Metrics().StoreErrorHook()(key, err)
			}
		},
	})
	if st.journal, _, err = store.OpenJournal(filepath.Join(dir, "jobs.journal"), obs.Discard()); err != nil {
		return nil, fmt.Errorf("job journal: %w", err)
	}
	var results store.Store = st.batcher
	if tr != nil {
		results = &timedStore{Store: st.batcher, tr: tr}
	}
	if st.eng, err = engine.New(engine.Config{Results: results}); err != nil {
		return nil, err
	}
	engPtr.Store(st.eng)
	st.srv = engine.NewServer(context.Background(), st.eng, engine.WithJournal(st.journal))
	var handler http.Handler = st.srv
	if tr != nil {
		handler = tr.handler(st.srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.httpSrv.Serve(ln) }()
	st.client = &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}

	// Warm-up: the engine's first optimization (c17), and a health check
	// that opens the client's connection. Neither is a job, so set-up
	// writes nothing to the journal: a job's fsync is a per-request cost,
	// and its latency follows the host's disk rather than the program.
	if _, err := st.eng.Optimize(context.Background(), engine.OptimizeRequest{Circuit: "c17", Ratio: 1.5}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if _, err := st.call(http.MethodGet, "/healthz", nil, "", http.StatusOK); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ok = true
	return st, nil
}

// close stops the service and unwinds the durable tier in popsd's
// order, then deletes the stack's directory.
func (st *stack) close() error {
	var errs []error
	if st.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, st.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	if st.srv != nil {
		st.srv.Shutdown()
	}
	if st.journal != nil {
		errs = append(errs, st.journal.Close())
	}
	if st.batcher != nil {
		errs = append(errs, st.batcher.Close())
	}
	if st.disk != nil {
		errs = append(errs, st.disk.Close())
	}
	errs = append(errs, os.RemoveAll(st.dir))
	return errors.Join(errs...)
}

// call sends one request and returns the response body, failing on any
// status other than want. A non-empty opID tags the request so traced
// server spans join the client's op.
func (st *stack) call(method, path string, body []byte, opID string, want int) ([]byte, error) {
	req, err := http.NewRequest(method, st.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if opID != "" {
		req.Header.Set("X-Request-ID", opID)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, out)
	}
	return out, nil
}

// opRequestID is the X-Request-ID of op seq.
func opRequestID(seq int) string { return "op-" + strconv.Itoa(seq) }

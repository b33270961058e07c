// HTTP layer: a standard-library JSON service over the engine and the
// async job store. cmd/popsd mounts it; tests drive it with httptest.
//
//	GET  /healthz            liveness, build info, pool stats
//	GET  /metrics            engine instruments, Prometheus text format
//	POST /v1/optimize        one (circuit, Tc) job
//	POST /v1/sweep           Tc-grid trade-off curve job
//	POST /v1/suite           benchmark-suite batch job
//	GET  /v1/jobs            all jobs, submission order
//	GET  /v1/jobs/{id}       one job with result when done
//	DELETE /v1/jobs          prune finished jobs (retention valve)
//
// POST bodies are JSON. By default a POST enqueues the job and answers
// 202 Accepted with the job snapshot for polling; {"wait": true} runs
// it synchronously and answers 200 with the finished job.
//
// Every response carries an X-Request-ID — the client's own (when it
// sent a well-formed one) or a freshly generated ID. The ID rides the
// request context into submitted jobs, appears in their records, and
// tags the structured access-log line, so one grep joins a client
// call to its job and its log output.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// Server is the popsd HTTP service.
type Server struct {
	engine  *Engine
	store   *Store
	mux     *http.ServeMux
	log     *slog.Logger
	started time.Time
}

// ServerOption customizes a Server at construction.
type ServerOption func(*Server)

// WithLogger installs the structured logger behind the access and job
// logs. The default discards; popsd passes its slog root here.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// NewServer wires a service over an engine. Jobs submitted through it
// run under ctx; cancel it (or Close the returned server's store via
// Shutdown) to stop background work.
func NewServer(ctx context.Context, e *Engine, opts ...ServerOption) *Server {
	s := &Server{
		engine:  e,
		store:   NewStore(ctx),
		mux:     http.NewServeMux(),
		log:     obs.Discard(),
		started: time.Now(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.store.metrics = e.metrics
	s.store.log = s.log
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/suite", s.handleSuite)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs", s.handlePrune)
	return s
}

// ServeHTTP implements http.Handler. It is the observability
// middleware of the service: it adopts the client's X-Request-ID (or
// assigns one), threads it through the request context, echoes it on
// the response, and emits the per-request metrics plus one structured
// access-log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := r.Header.Get("X-Request-ID")
	if !obs.ValidRequestID(rid) {
		rid = obs.NewRequestID()
	}
	r = r.WithContext(obs.WithRequestID(r.Context(), rid))
	w.Header().Set("X-Request-ID", rid)
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	status := sw.status
	if status == 0 {
		// The handler never wrote: the net/http machinery answers 200 on
		// return.
		status = http.StatusOK
	}
	s.engine.metrics.httpServed(status, start)
	s.log.Info("request",
		"method", r.Method, "path", r.URL.Path, "status", status,
		"bytes", sw.bytes, "duration", time.Since(start), "request_id", rid)
}

// statusWriter records the status code and body bytes of a response
// for the access log and the HTTP metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Store exposes the job store (graceful shutdown, tests).
func (s *Server) Store() *Store { return s.store }

// Shutdown stops accepting results and drains in-flight jobs.
func (s *Server) Shutdown() { s.store.Close() }

// buildInfo resolves the module version and VCS revision once per
// process — the binary's build metadata never changes.
var buildInfo = sync.OnceValues(func() (version, revision string) {
	version, revision = "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return
})

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	version, revision := buildInfo()
	// Store.Len, not len(Store.List()): a liveness probe must not
	// snapshot every retained job (results included) per poll.
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"version":       version,
		"revision":      revision,
		"goVersion":     runtime.Version(),
		"uptimeSeconds": time.Since(s.started).Seconds(),
		"workers":       s.engine.Workers(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"process":       s.engine.Model().Proc.Name,
		"jobs":          s.store.Len(),
	})
}

// handleMetrics renders every engine instrument in the Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.engine.metrics.reg.WritePrometheus(w); err != nil {
		// The status line is already committed; nothing to answer.
		s.log.Warn("metrics exposition failed", "error", err.Error())
	}
}

// resolveBench validates a POST body's circuit reference — exactly one
// of a suite name or an inline .bench source — and pre-parses the
// inline source so the job never re-parses it. Errors are answered on
// w directly: 400 for a missing/ambiguous reference or malformed
// source text, 422 for well-formed text that is not a valid netlist
// (unsupported gates, cycles, duplicate definitions, over-limit
// sizes). The bool reports whether the request survived.
func resolveBench(w http.ResponseWriter, circuit, bench string) (*ParsedBench, bool) {
	if err := validateSourceRef(circuit, bench); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return nil, false
	}
	if bench == "" {
		return nil, true
	}
	pb, err := parseBenchService(bench)
	if err != nil {
		httpError(w, benchStatus(err), err)
		return nil, false
	}
	return pb, true
}

// benchStatus maps a rejected .bench source to its HTTP status:
// malformed text is the client's syntax problem (400), while
// well-formed text describing an invalid or over-limit netlist is a
// semantic one (422).
func benchStatus(err error) int {
	var be *netlist.BenchError
	if errors.As(err, &be) && be.Kind == netlist.BenchSyntax {
		return http.StatusBadRequest
	}
	return http.StatusUnprocessableEntity
}

// optimizeBody is the POST /v1/optimize request payload.
type optimizeBody struct {
	OptimizeRequest
	Wait bool `json:"wait,omitempty"`
}

// readOptimize decodes and validates a POST /v1/optimize body: the
// bounded JSON decode, the constraint range check and the circuit
// reference. Rejections are answered on w (400, 413 or 422); the bool
// reports whether the request survived.
func readOptimize(w http.ResponseWriter, r *http.Request) (optimizeBody, bool) {
	var body optimizeBody
	if !readJSON(w, r, &body) {
		return body, false
	}
	if err := validateConstraint(body.Tc, body.Ratio, 0, nil); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return body, false
	}
	pb, ok := resolveBench(w, body.Circuit, body.Bench)
	body.parsed = pb
	return body, ok
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	body, ok := readOptimize(w, r)
	if !ok {
		return
	}
	label := body.Circuit
	if body.parsed != nil {
		label = body.parsed.Name
	}
	s.dispatch(w, r, JobOptimize, body.Wait, label, body.OptimizeRequest, func(ctx context.Context) (any, error) {
		res, err := s.engine.Optimize(ctx, body.OptimizeRequest)
		if err != nil {
			return nil, err
		}
		return WireOptimize(res), nil
	})
}

// sweepBody is the POST /v1/sweep request payload.
type sweepBody struct {
	SweepRequest
	Wait bool `json:"wait,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var body sweepBody
	if !readJSON(w, r, &body) {
		return
	}
	if err := validateConstraint(0, 0, body.Points, nil); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	pb, ok := resolveBench(w, body.Circuit, body.Bench)
	if !ok {
		return
	}
	body.parsed = pb
	label := body.Circuit
	if pb != nil {
		label = pb.Name
	}
	s.dispatch(w, r, JobSweep, body.Wait, label, body.SweepRequest, func(ctx context.Context) (any, error) {
		return s.engine.Sweep(ctx, body.SweepRequest)
	})
}

// suiteBody is the POST /v1/suite request payload.
type suiteBody struct {
	SuiteRequest
	Wait bool `json:"wait,omitempty"`
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	var body suiteBody
	if !readJSON(w, r, &body) {
		return
	}
	if err := validateConstraint(0, 0, 0, body.Ratios); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Inline entries are validated synchronously: a bad netlist answers
	// 400/422 here instead of surfacing as an async job failure.
	if len(body.Benches) > 0 {
		body.parsed = make([]*ParsedBench, len(body.Benches))
		for i, src := range body.Benches {
			pb, err := parseBenchService(src)
			if err != nil {
				httpError(w, benchStatus(err), fmt.Errorf("benches[%d]: %w", i, err))
				return
			}
			body.parsed[i] = pb
		}
	}
	label := fmt.Sprintf("suite(%d entries)", len(body.Benchmarks)+len(body.Benches))
	s.dispatch(w, r, JobSuite, body.Wait, label, body.SuiteRequest, func(ctx context.Context) (any, error) {
		return s.engine.Suite(ctx, body.SuiteRequest)
	})
}

// dispatch submits the job under the request's trace ID and answers
// either the finished job (wait) or a 202 snapshot for polling.
// circuit labels the job's subject in the submit log line — a suite
// benchmark name, an inline netlist's parsed name (fingerprint-derived
// when anonymous), or an entry count for suites. req is the validated
// request value journaled for crash replay (when the server has a
// journal); it must re-validate and re-run identically when
// unmarshalled by Server.Replay. A store that began shutting down
// rejects the submission; that is the daemon draining, not a client
// error, so it answers 503.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, kind JobKind, wait bool, circuit string, req any, run func(ctx context.Context) (any, error)) {
	rid := obs.RequestID(r.Context())
	var payload []byte
	if s.store.journal != nil {
		var err error
		if payload, err = acceptedRecord(kind, rid, req); err != nil {
			// Requests arrive as JSON, so re-marshalling one cannot fail;
			// degrade to an unjournaled job rather than rejecting it.
			s.log.Warn("journal payload encoding failed; job will not be replayable",
				"kind", string(kind), "request_id", rid, "error", err.Error())
			payload = nil
		}
	}
	j, err := s.store.submit(kind, rid, payload, run)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.log.Info("job submitted",
		"job", j.ID, "kind", string(kind), "circuit", circuit,
		"wait", wait, "request_id", rid)
	if !wait {
		writeJSON(w, http.StatusAccepted, j)
		return
	}
	done, ok := s.store.Await(j.ID)
	if !ok {
		// A concurrent DELETE /v1/jobs pruned the job between finish
		// and pickup; the result is gone.
		httpError(w, http.StatusGone, errors.New("job was pruned before its result was read"))
		return
	}
	status := http.StatusOK
	if done.Status == JobFailed {
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, done)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.store.List()})
}

// handlePrune drops all finished jobs and their retained results —
// the retention valve for long-running daemons.
func (s *Server) handlePrune(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]int{"pruned": s.store.Prune(time.Time{})})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// OptimizeWire is the JSON shape of an optimize result: the outcome
// summary without the netlist back-references of core.CircuitOutcome
// (whose Path/Node graphs are cyclic and not marshalable).
type OptimizeWire struct {
	Circuit     string     `json:"circuit"`
	Tc          float64    `json:"tc"`
	Tmin        float64    `json:"tmin"`
	Tmax        float64    `json:"tmax"`
	Gates       int        `json:"gates"`
	Delay       float64    `json:"delay"`
	Area        float64    `json:"area"`
	Feasible    bool       `json:"feasible"`
	Rounds      int        `json:"rounds"`
	Buffers     int        `json:"buffers"`
	NorRewrites int        `json:"norRewrites"`
	Paths       []PathWire `json:"paths,omitempty"`
	// Leakage reports the multi-Vt pass of a leakage-aware run.
	Leakage *LeakageWire `json:"leakage,omitempty"`
}

// LeakageWire is the JSON shape of a multi-Vt assignment result.
type LeakageWire struct {
	Promoted       int            `json:"promoted"`
	ByClass        map[string]int `json:"byClass"`
	DynamicUW      float64        `json:"dynamicUW"`
	StaticBeforeUW float64        `json:"staticBeforeUW"`
	StaticAfterUW  float64        `json:"staticAfterUW"`
	TotalBeforeUW  float64        `json:"totalBeforeUW"`
	TotalAfterUW   float64        `json:"totalAfterUW"`
	SavingPct      float64        `json:"savingPct"`
}

// PathWire is one protocol round in an OptimizeWire.
type PathWire struct {
	Domain   string  `json:"domain"`
	Method   string  `json:"method"`
	Tmin     float64 `json:"tmin"`
	Tmax     float64 `json:"tmax"`
	Tc       float64 `json:"tc"`
	Delay    float64 `json:"delay"`
	Area     float64 `json:"area"`
	Buffers  int     `json:"buffers"`
	Feasible bool    `json:"feasible"`
	Stages   int     `json:"stages"`
}

// WireOptimize flattens an OptimizeResult for JSON transport. It is
// exported for the rest of the module — the entry-point equivalence
// tests reproduce the service's wire shape byte-for-byte from a
// library-level result through it.
func WireOptimize(r *OptimizeResult) OptimizeWire {
	o := OptimizeWire{
		Circuit:     r.Circuit,
		Tc:          r.Tc,
		Tmin:        r.Tmin,
		Tmax:        r.Tmax,
		Gates:       r.Gates,
		Delay:       r.Outcome.Delay,
		Area:        r.Outcome.Area,
		Feasible:    r.Outcome.Feasible,
		Rounds:      r.Outcome.Rounds,
		Buffers:     r.Outcome.Buffers,
		NorRewrites: r.Outcome.NorRewrites,
	}
	if lr := r.Outcome.Leakage; lr != nil {
		w := &LeakageWire{
			Promoted:       lr.Promoted,
			ByClass:        make(map[string]int, len(lr.ByClass)),
			DynamicUW:      lr.DynamicUW,
			StaticBeforeUW: lr.StaticBeforeUW,
			StaticAfterUW:  lr.StaticAfterUW,
			TotalBeforeUW:  lr.TotalBeforeUW,
			TotalAfterUW:   lr.TotalAfterUW,
			SavingPct:      lr.SavingPct,
		}
		for cls, n := range lr.ByClass {
			w.ByClass[cls.String()] = n
		}
		o.Leakage = w
	}
	for _, po := range r.Outcome.PathOutcomes {
		o.Paths = append(o.Paths, PathWire{
			Domain:   po.Domain.String(),
			Method:   po.Method,
			Tmin:     po.Tmin,
			Tmax:     po.Tmax,
			Tc:       po.Tc,
			Delay:    po.Delay,
			Area:     po.Area,
			Buffers:  po.Buffers,
			Feasible: po.Feasible,
			Stages:   po.Path.Len(),
		})
	}
	return o
}

// maxBodyBytes bounds POST request bodies (1 MiB — far above any
// legitimate request of this API).
const maxBodyBytes = 1 << 20

// readJSON decodes a bounded request body: malformed JSON answers 400,
// a body over maxBodyBytes answers 413 with a clear message instead of
// surfacing the truncation as a misleading syntax error, and trailing
// data after the JSON value answers 400 — the body must be exactly one
// value, so `{"circuit":"c17"}{"x":1}` is rejected rather than having
// its tail silently ignored.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, err)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		// The tail can also be where the body blows the size cap (a
		// valid JSON value followed by megabytes of padding): that is
		// the documented 413, not trailing-data 400.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest,
			errors.New("request body contains data after the JSON value"))
		return false
	}
	return true
}

// writeJSON marshals v to a buffer first and only then touches the
// ResponseWriter. Encoding straight into the wire would commit the
// status line before a failure could surface, so an unmarshalable
// value — a non-finite float leaking out of an infeasible sizing
// result, say — would yield a truncated body under a 200. With the
// buffer, encoding failures answer a clean 500 with a JSON error body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		status = http.StatusInternalServerError
		buf, _ = json.Marshal(map[string]string{
			"error": fmt.Sprintf("encoding response: %v", err),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(buf, '\n'))
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

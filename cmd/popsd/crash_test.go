// Crash-recovery end-to-end test: boots the real daemon as a child
// process with -data-dir, computes results, SIGKILLs it mid-job, and
// reboots over the same directory. The restarted daemon must serve the
// previously computed results byte-identically from disk without
// recomputing, re-submit the journaled job that never finished, and
// shrug off an injected corrupt record with a logged skip.
//
// The child is this test binary re-executed with POPSD_CRASH_CHILD=1;
// TestMain routes that invocation into run() instead of the test
// runner, so the process under test is the genuine daemon wiring —
// flags, durability setup, replay and shutdown order included.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if os.Getenv("POPSD_CRASH_CHILD") == "1" {
		childMain()
		return
	}
	os.Exit(m.Run())
}

// childMain is the daemon entry point of the re-executed test binary:
// main() with the command line replaced by POPSD_CHILD_* variables.
func childMain() {
	flush, err := time.ParseDuration(os.Getenv("POPSD_CHILD_FLUSH"))
	if err != nil {
		flush = 100 * time.Millisecond
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := options{
		addr:          os.Getenv("POPSD_CHILD_ADDR"),
		workers:       2,
		logLevel:      "debug",
		logFormat:     "text",
		dataDir:       os.Getenv("POPSD_CHILD_DATA_DIR"),
		flushInterval: flush,
	}
	if err := run(ctx, opts, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
}

// syncBuffer collects the child's stderr from its copier goroutine
// while the test reads it for log assertions.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr reserves an ephemeral port and releases it for the child.
// The tiny reuse race is acceptable in a test that boots one child at
// a time.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// bootChild re-executes the test binary as a popsd daemon on addr over
// dataDir and returns the running process.
func bootChild(t *testing.T, dataDir, addr string, stderr io.Writer) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"POPSD_CRASH_CHILD=1",
		"POPSD_CHILD_ADDR="+addr,
		"POPSD_CHILD_DATA_DIR="+dataDir,
		"POPSD_CHILD_FLUSH=100ms",
	)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became healthy", base)
}

// postResult issues a wait:true POST and returns the raw bytes of the
// finished job's result field — the payload that must be identical
// whether computed or served from disk.
func postResult(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d body %.400s", url, resp.StatusCode, data)
	}
	var wrapper struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &wrapper); err != nil {
		t.Fatalf("POST %s: unmarshal %.400s: %v", url, data, err)
	}
	if len(wrapper.Result) == 0 {
		t.Fatalf("POST %s: finished job has no result: %.400s", url, data)
	}
	return wrapper.Result
}

// scrapeCounter reads one unlabeled counter off /metrics.
func scrapeCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in /metrics", name)
	return 0
}

type jobView struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	Status    string    `json:"status"`
	RequestID string    `json:"request_id"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
}

// getJob reads one job's snapshot off GET /v1/jobs/{id}.
func getJob(t *testing.T, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d body %.300s", id, resp.StatusCode, data)
	}
	var j jobView
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatalf("GET job %s: %v in %.300s", id, err, data)
	}
	return j
}

// waitJobsSettled polls /v1/jobs until every job reached a terminal
// state and returns the final list.
func waitJobsSettled(t *testing.T, base string) []jobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var body struct {
			Jobs []jobView `json:"jobs"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatalf("jobs list: %v in %.300s", err, data)
		}
		settled := true
		for _, j := range body.Jobs {
			if j.Status != "done" && j.Status != "failed" {
				settled = false
			}
		}
		if settled {
			return body.Jobs
		}
		time.Sleep(200 * time.Millisecond)
	}
	t.Fatal("jobs never settled after replay")
	return nil
}

// TestCrashRecovery is the durability tentpole end to end: results
// computed before a SIGKILL are served byte-identically from disk by
// the rebooted daemon with zero recompute, the job that was in flight
// at the kill is replayed from the journal, and an injected corrupt
// record is skipped with a warning instead of poisoning the boot.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process crash test skipped in -short mode")
	}
	dataDir := t.TempDir()

	optimizeBody := `{"circuit":"fpd","ratio":1.5,"leakage":true,"wait":true}`
	suiteBody := `{"benchmarks":["fpd","c432"],"ratios":[1.2],"wait":true}`
	// An inline netlist persists under its content fingerprint, so the
	// reboot must serve it from disk exactly like a named benchmark.
	benchBody := fmt.Sprintf(`{"bench":%q,"ratio":1.4,"wait":true}`,
		"# name: crashbench\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")

	// Boot #1: compute a result set, then get killed mid-job.
	var log1 syncBuffer
	addr1 := freeAddr(t)
	child1 := bootChild(t, dataDir, addr1, &log1)
	base1 := "http://" + addr1
	waitHealthy(t, base1)

	optRes := postResult(t, base1+"/v1/optimize", optimizeBody)
	suiteRes := postResult(t, base1+"/v1/suite", suiteBody)
	benchRes := postResult(t, base1+"/v1/optimize", benchBody)

	// Let the write-behind batcher (100ms cadence in the child) flush
	// the finished results to disk before the crash.
	time.Sleep(500 * time.Millisecond)
	psr, err := filepath.Glob(filepath.Join(dataDir, "results", "*.psr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(psr) == 0 {
		t.Fatalf("no persisted records before crash; child log:\n%s", log1.String())
	}

	// Submit a long async job — journaled and running, nowhere near
	// done — then SIGKILL the daemon under it. The kill follows the
	// first poll that sees the job running, so only the job's own run
	// time (hundreds of milliseconds: none of its 12 cells is memoized,
	// and c5315/c7552 are the suite's largest) separates the kill from
	// completion, never a fixed sleep.
	req, err := http.NewRequest(http.MethodPost, base1+"/v1/suite",
		strings.NewReader(`{"benchmarks":["c880","c1355","c5315","c7552"],"ratios":[1.2,1.5,2.0]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "req-crash-e2e")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var accepted jobView
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil || accepted.ID == "" {
		t.Fatalf("async suite submit: status %d, job %+v, decode error %v", resp.StatusCode, accepted, err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		j := getJob(t, base1, accepted.ID)
		if j.Status == "running" {
			break
		}
		if j.Status != "pending" {
			t.Fatalf("job %s reached %q before the kill; it must still be running", j.ID, j.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running", j.ID)
		}
		time.Sleep(time.Millisecond)
	}
	if err := child1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child1.Wait()

	// Inject a corrupt record: the reboot must skip it with a warning,
	// not refuse to serve.
	corrupt := filepath.Join(dataDir, "results", "deadbeefcafe.psr")
	if err := os.WriteFile(corrupt, []byte("not a PSR1 record"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Boot #2 over the same directory.
	var log2 syncBuffer
	addr2 := freeAddr(t)
	child2 := bootChild(t, dataDir, addr2, &log2)
	base2 := "http://" + addr2
	waitHealthy(t, base2)

	// The journaled-but-unfinished suite job was re-submitted with its
	// original request and request ID; wait for it to finish.
	jobs := waitJobsSettled(t, base2)
	var replayed *jobView
	for i, j := range jobs {
		if j.RequestID == "req-crash-e2e" {
			replayed = &jobs[i]
		}
	}
	if replayed == nil {
		t.Fatalf("killed job was not replayed; jobs after reboot: %+v\nchild log:\n%s", jobs, log2.String())
	}
	if replayed.Kind != "suite" || replayed.Status != "done" {
		t.Fatalf("replayed job = %+v, want a finished suite job", *replayed)
	}
	// The replay's run time is a lower bound on the killed job's (cells
	// flushed before the kill are served from disk): the margin the
	// kill had over the job's completion.
	t.Logf("replayed job %s ran %v", replayed.ID, replayed.Finished.Sub(replayed.Started))

	if !strings.Contains(log2.String(), "skipping corrupt record") {
		t.Errorf("reboot did not log the injected corrupt record skip; log:\n%s", log2.String())
	}

	// Re-request the pre-crash results: byte-identical payloads, zero
	// new engine tasks — served purely from the durable tier.
	tasksBefore := scrapeCounter(t, base2, "pops_tasks_total")
	hitsBefore := scrapeCounter(t, base2, "pops_store_hits_total")
	optRes2 := postResult(t, base2+"/v1/optimize", optimizeBody)
	suiteRes2 := postResult(t, base2+"/v1/suite", suiteBody)
	benchRes2 := postResult(t, base2+"/v1/optimize", benchBody)
	if !bytes.Equal(optRes, optRes2) {
		t.Errorf("optimize result changed across crash/reboot:\npre:  %.300s\npost: %.300s", optRes, optRes2)
	}
	if !bytes.Equal(suiteRes, suiteRes2) {
		t.Errorf("suite result changed across crash/reboot:\npre:  %.300s\npost: %.300s", suiteRes, suiteRes2)
	}
	if !bytes.Equal(benchRes, benchRes2) {
		t.Errorf("inline-bench result changed across crash/reboot:\npre:  %.300s\npost: %.300s", benchRes, benchRes2)
	}
	if tasksAfter := scrapeCounter(t, base2, "pops_tasks_total"); tasksAfter != tasksBefore {
		t.Errorf("rebooted daemon recomputed: pops_tasks_total %v -> %v, want unchanged", tasksBefore, tasksAfter)
	}
	if hitsAfter := scrapeCounter(t, base2, "pops_store_hits_total"); hitsAfter <= hitsBefore {
		t.Errorf("pops_store_hits_total %v -> %v, want growth from disk-served results", hitsBefore, hitsAfter)
	}
	if errs := scrapeCounter(t, base2, "pops_store_errors_total"); errs != 0 {
		t.Errorf("pops_store_errors_total = %v, want 0", errs)
	}

	// Graceful goodbye: SIGTERM drains jobs, closes the journal and
	// flushes the batcher; the child must exit cleanly.
	if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := child2.Wait(); err != nil {
		t.Fatalf("graceful shutdown after recovery: %v\nchild log:\n%s", err, log2.String())
	}
}

package netlist_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/iscas"
	"repro/internal/netlist"
)

// The ingestion golden pins what ReadBench, Elaborate and Clone build,
// not just what they compute: node IDs, creation order, names
// (generated ones included), fanin and fanout order, the structural
// epoch, the ID bound and the next generated name, plus the canonical
// Fingerprint and every rejection's kind, line and message. An
// allocation or layout change to the ingestion path must leave it
// byte-identical.
//
// Regenerate (only when ingestion output legitimately changes):
//
//	go test ./internal/netlist -run TestIngestGolden -update-ingest-golden

var updateIngestGolden = flag.Bool("update-ingest-golden", false,
	"rewrite testdata/ingest_golden.json from the current ingestion path")

const ingestGoldenPath = "testdata/ingest_golden.json"

// ingestRecord is one source's outcome: either a rejection or the
// read and elaborated circuits' identities.
type ingestRecord struct {
	Source string `json:"source"`

	ErrKind string `json:"errKind,omitempty"`
	ErrLine int    `json:"errLine,omitempty"`
	ErrMsg  string `json:"errMsg,omitempty"`

	ReadNodes       int    `json:"readNodes,omitempty"`
	ReadFingerprint string `json:"readFingerprint,omitempty"`
	ReadStructure   string `json:"readStructure,omitempty"`
	ReadNextName    string `json:"readNextName,omitempty"`
	ElabNodes       int    `json:"elabNodes,omitempty"`
	ElabFingerprint string `json:"elabFingerprint,omitempty"`
	ElabStructure   string `json:"elabStructure,omitempty"`
	ElabNextName    string `json:"elabNextName,omitempty"`
}

// structureDigest hashes everything about c's layout that Fingerprint
// leaves out: IDs, the ID bound, the epoch, fanout order and the
// input/output node identities, on top of names, types and sizes.
func structureDigest(c *netlist.Circuit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q idbound=%d epoch=%d nodes=%d\n", c.Name, c.IDBound(), c.Epoch(), len(c.Nodes))
	ids := func(ns []*netlist.Node) string {
		s := make([]string, len(ns))
		for i, n := range ns {
			s[i] = fmt.Sprint(n.ID)
		}
		return strings.Join(s, ",")
	}
	for _, n := range c.Nodes {
		fmt.Fprintf(&b, "%d %q %v vt=%d cin=%x cwire=%x in=[%s] out=[%s]\n",
			n.ID, n.Name, n.Type, n.Vt, n.CIn, n.CWire, ids(n.Fanin), ids(n.Fanout))
	}
	fmt.Fprintf(&b, "inputs=[%s] outputs=[%s]\n", ids(c.Inputs), ids(c.Outputs))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// ingestSources lists the golden's inputs: every suite circuit, the
// random-logic, adder and genuine c17 sources serialized to .bench,
// and the parser's fuzz seeds.
func ingestSources(t *testing.T) (names, srcs []string) {
	t.Helper()
	var circuits []string
	for _, s := range iscas.Suite() {
		circuits = append(circuits, s.Name)
	}
	circuits = append(circuits, "mix300", "rca8")
	for _, name := range circuits {
		c, err := iscas.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := netlist.WriteBench(&sb, c); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		srcs = append(srcs, sb.String())
	}
	names = append(names, "c17")
	srcs = append(srcs, iscas.C17Bench())
	for i, s := range netlist.FuzzReadBenchSeeds {
		names = append(names, fmt.Sprintf("seed%02d", i))
		srcs = append(srcs, s)
	}
	return names, srcs
}

// ingestRun parses, elaborates, validates and clones one source and
// records the identities. A clone must match its original exactly.
func ingestRun(t *testing.T, name, src string) ingestRecord {
	t.Helper()
	rec := ingestRecord{Source: name}
	c, err := netlist.ReadBench(strings.NewReader(src), netlist.BenchOptions{})
	if err != nil {
		var be *netlist.BenchError
		if !errors.As(err, &be) {
			t.Fatalf("%s: untyped rejection %T: %v", name, err, err)
		}
		rec.ErrKind, rec.ErrLine, rec.ErrMsg = be.Kind.String(), be.Line, be.Msg
		return rec
	}
	rec.ReadNodes = len(c.Nodes)
	rec.ReadFingerprint = netlist.Fingerprint(c)
	rec.ReadStructure = structureDigest(c)
	el, err := netlist.Elaborate(c)
	if err != nil {
		t.Fatalf("%s: elaborate: %v", name, err)
	}
	if err := el.Validate(); err != nil {
		t.Fatalf("%s: validate: %v", name, err)
	}
	rec.ElabNodes = len(el.Nodes)
	rec.ElabFingerprint = netlist.Fingerprint(el)
	rec.ElabStructure = structureDigest(el)
	for _, orig := range []*netlist.Circuit{c, el} {
		cl := orig.Clone()
		if got, want := structureDigest(cl), structureDigest(orig); got != want {
			t.Errorf("%s: clone structure differs from its original", name)
		}
		if netlist.Fingerprint(cl) != netlist.Fingerprint(orig) {
			t.Errorf("%s: clone fingerprint differs from its original", name)
		}
		if a, b := netlist.NextGenName(cl, "gen"), netlist.NextGenName(orig, "gen"); a != b {
			t.Errorf("%s: clone's next generated name %q, original's %q", name, a, b)
		}
	}
	rec.ReadNextName = netlist.NextGenName(c, "gen")
	rec.ElabNextName = netlist.NextGenName(el, "gen")
	return rec
}

// TestIngestGolden pins the ingestion path byte-identical against
// testdata/ingest_golden.json.
func TestIngestGolden(t *testing.T) {
	names, srcs := ingestSources(t)
	got := make([]ingestRecord, len(names))
	for i := range names {
		got[i] = ingestRun(t, names[i], srcs[i])
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateIngestGolden {
		if err := os.WriteFile(ingestGoldenPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ingestGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-ingest-golden)", err)
	}
	if string(want) == string(enc) {
		return
	}
	var old []ingestRecord
	if err := json.Unmarshal(want, &old); err != nil {
		t.Fatal(err)
	}
	if len(old) != len(got) {
		t.Fatalf("golden has %d sources, run has %d", len(old), len(got))
	}
	for i := range got {
		if old[i] != got[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", got[i].Source, got[i], old[i])
		}
	}
}

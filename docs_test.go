package pops_test

// The documentation gate, run by CI as part of the normal test suite
// and by the dedicated docs job: every package must carry a package
// comment, every exported identifier of the facade must be documented,
// and every relative link in the repository's markdown files must
// resolve. The gate keeps the docs/ pages and the README from rotting
// as the codebase grows.

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goPackageDirs returns every directory under root holding a Go
// package of this module (skipping testdata and hidden directories).
func goPackageDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		files, globErr := filepath.Glob(filepath.Join(path, "*.go"))
		if globErr != nil {
			return globErr
		}
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestDocsPackageComments fails on any package (root, internal/*,
// cmd/*, examples/*) whose non-test files carry no package doc
// comment.
func TestDocsPackageComments(t *testing.T) {
	for _, dir := range goPackageDirs(t) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (in %s) has no package doc comment", name, dir)
			}
		}
	}
}

// TestDocsFacadeExported fails on any exported identifier of the pops
// facade (the repository root package) lacking a doc comment — the
// facade is the public API surface, so every name must explain itself
// in godoc.
func TestDocsFacadeExported(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["pops"]
	if !ok {
		t.Fatal("root package pops not found")
	}
	d := doc.New(pkg, "repro", 0)
	check := func(kind, name string, docText string) {
		if ast.IsExported(name) && strings.TrimSpace(docText) == "" {
			t.Errorf("facade %s %s has no doc comment", kind, name)
		}
	}
	for _, v := range d.Consts {
		if strings.TrimSpace(v.Doc) == "" {
			t.Errorf("facade const group %v has no doc comment", v.Names)
		}
	}
	for _, v := range d.Vars {
		if strings.TrimSpace(v.Doc) == "" {
			t.Errorf("facade var group %v has no doc comment", v.Names)
		}
	}
	for _, ty := range d.Types {
		check("type", ty.Name, ty.Doc)
		for _, fn := range ty.Funcs {
			check("func", fn.Name, fn.Doc)
		}
		for _, m := range ty.Methods {
			check("method", ty.Name+"."+m.Name, m.Doc)
		}
	}
	for _, fn := range d.Funcs {
		check("func", fn.Name, fn.Doc)
	}
}

// TestDocsBenchIngestionCovered pins the bring-your-own-netlist
// surface into the documentation: the HTTP reference must document the
// inline-netlist request fields and the full client-error vocabulary,
// and the README must name the facade entry points. A rename or
// removal that forgets the docs fails here, not in production.
func TestDocsBenchIngestionCovered(t *testing.T) {
	requirements := map[string][]string{
		filepath.Join("docs", "API.md"): {
			"`bench`", "`benches`", "`400`", "`413`", "`422`", "`503`",
			"fingerprint",
		},
		"README.md": {
			"OptimizeBench", "ParseBench", "BenchError",
			"-bench", "custombench",
		},
	}
	for file, wants := range requirements {
		buf, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(buf)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s no longer documents %q", file, want)
			}
		}
	}
}

// TestDocsObservabilityCovered pins the observability surface into the
// documentation: the HTTP reference must document the /metrics endpoint,
// the metric families, and the request-tracing contract; the
// architecture page must describe the instrumentation layer; and the
// README must show how to scrape the daemon.
func TestDocsObservabilityCovered(t *testing.T) {
	requirements := map[string][]string{
		filepath.Join("docs", "API.md"): {
			"/metrics", "X-Request-ID", "request_id",
			"pops_http_requests_total", "pops_jobs_total",
			"pops_memo_hits_total", "-log-level", "-log-format",
		},
		filepath.Join("docs", "ARCHITECTURE.md"): {
			"Observability", "internal/obs", "X-Request-ID",
			"Recorder",
		},
		"README.md": {
			"/metrics", "X-Request-ID", "pops metrics",
			"scrape_configs", "-log-level",
		},
	}
	for file, wants := range requirements {
		buf, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(buf)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s no longer documents %q", file, want)
			}
		}
	}
}

// TestDocsDurabilityCovered pins the durability surface into the
// documentation: the HTTP reference must document the persisted-job
// lifecycle and the store metric families, the architecture page must
// describe the store/tiering/replay design, and the README must show
// the -data-dir quickstart.
func TestDocsDurabilityCovered(t *testing.T) {
	requirements := map[string][]string{
		filepath.Join("docs", "API.md"): {
			"-data-dir", "-flush-interval", "jobs.journal",
			"re-submit", "pops_store_hits_total",
			"pops_store_misses_total", "pops_store_writes_total",
			"pops_store_errors_total",
		},
		filepath.Join("docs", "ARCHITECTURE.md"): {
			"Durability", "internal/store", "PSR1", "CRC-32",
			"Write-behind", "atomic rename", "journal",
			"TestStoreEquivalenceGolden", "crash_test",
		},
		"README.md": {
			"-data-dir", "pops_store_hits_total", "journaled",
			"byte-identically",
		},
	}
	for file, wants := range requirements {
		buf, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(buf)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s no longer documents %q", file, want)
			}
		}
	}
}

// TestDocsConcurrencyLintCovered pins the concurrency-and-determinism
// lint surface: the architecture page must describe the three
// concurrency and determinism analyzers, the analyzer-to-invariant
// table, the orderindep annotation, and the suppression budget; the
// README must carry the ignores workflow and the enforced staticcheck
// note.
func TestDocsConcurrencyLintCovered(t *testing.T) {
	requirements := map[string][]string{
		filepath.Join("docs", "ARCHITECTURE.md"): {
			"The seven analyzers",
			"rngstream", "maporder", "locksafe",
			"byte-identity", "//pops:orderindep",
			"block after the unlock",
			"-ignores", "ignores_budget.txt",
			"seeded-violation", "staticcheck",
		},
		"README.md": {
			"rngstream", "maporder", "locksafe",
			"//pops:orderindep", "-ignores", "ignores_budget.txt",
			"staticcheck",
		},
	}
	for file, wants := range requirements {
		buf, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(buf)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s no longer documents %q", file, want)
			}
		}
	}
}

// TestDocsStaticAnalysisCovered pins the static-analysis surface into
// the documentation: the architecture page must describe the popslint
// suite (all four analyzers, the annotation and suppression grammar,
// and the vet-tool invocation), and the README must carry the
// developer-workflow note for running it locally.
func TestDocsStaticAnalysisCovered(t *testing.T) {
	requirements := map[string][]string{
		filepath.Join("docs", "ARCHITECTURE.md"): {
			"Static analysis", "cmd/popslint", "-vettool",
			"mutatorepoch", "noalloc", "memokey", "nilrecorder",
			"//pops:noalloc", "//pops:mutates", "popslint:ignore",
			"MarkMutated", "taskKey", "boundsKey",
		},
		"README.md": {
			"popslint", "-vettool", "mutatorepoch", "noalloc",
			"memokey", "nilrecorder", "popslint:ignore",
		},
	}
	for file, wants := range requirements {
		buf, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(buf)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s no longer documents %q", file, want)
			}
		}
	}
}

// mdLink matches inline markdown links; the first group is the target.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinks resolves every relative link in the repository's
// markdown files (root *.md and docs/*.md): the target file must
// exist. External links (http, https, mailto) are skipped.
func TestDocsLinks(t *testing.T) {
	var files []string
	for _, pat := range []string{"*.md", "docs/*.md"} {
		hits, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, hits...)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	for _, file := range files {
		buf, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(buf), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%s does not exist)", file, m[1], resolved)
			}
		}
	}
}

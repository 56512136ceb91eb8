package nmsl

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmsl/internal/consistency"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/errors/diagnostics.golden")

// diagnosticsGolden holds the full text of every diagnostic the front end
// and the checker give over diagnosticsInputs.
const diagnosticsGolden = "testdata/errors/diagnostics.golden"

// diagnosticsInputs are a specification the checker finds inconsistent
// and one that trips every link error and every lexical and syntax
// error.
var diagnosticsInputs = []string{
	"testdata/campus-broken.nmsl",
	"testdata/errors/link-errors.nmsl",
}

// diagnostics renders, one per line, every syntax error Parse reports on
// the file, every semantic error analyzing what it recovered reports,
// and, when there are none, the consistency report.
func diagnostics(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.ToSlash(path)
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", name)
	f, err := parser.Parse(name, string(data))
	var perrs parser.ErrorList
	if errors.As(err, &perrs) {
		for _, e := range perrs {
			fmt.Fprintf(&b, "parse: %s\n", e)
		}
	} else if err != nil {
		t.Fatalf("%s: parse error of type %T: %v", path, err, err)
	}
	a := sema.NewAnalyzer()
	a.AnalyzeFile(f)
	spec, err := a.Finish()
	var serrs sema.ErrorList
	if errors.As(err, &serrs) {
		for _, e := range serrs {
			fmt.Fprintf(&b, "sema: %s\n", e)
		}
	} else if err != nil {
		t.Fatalf("%s: semantic error of type %T: %v", path, err, err)
	}
	if len(perrs) == 0 && len(serrs) == 0 {
		b.WriteString(consistency.Check(consistency.BuildModel(spec)).String())
	}
	return b.String()
}

// TestDiagnosticsGolden holds every diagnostic, position and text, to
// the golden file byte for byte (rewritten under -update).
func TestDiagnosticsGolden(t *testing.T) {
	var b strings.Builder
	for _, path := range diagnosticsInputs {
		b.WriteString(diagnostics(t, path))
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(diagnosticsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(diagnosticsGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("diagnostics differ from %s:\n%s", diagnosticsGolden, got)
	}
}

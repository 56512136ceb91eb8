package extension

import (
	"io"
	"os"
	"strings"
	"testing"

	"nmsl/internal/parser"
	"nmsl/internal/sema"
)

// FuzzParseExtension feeds arbitrary text to the NMSL/EXT reader. The
// reader must never panic, and every extension it accepts must install
// into fresh compiler tables without panicking, and the extended
// compiler must then analyze the proxy specification and run its
// outputs without panicking either (errors are fine).
func FuzzParseExtension(f *testing.F) {
	seed, err := os.ReadFile("../../testdata/proxy.nmslext")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add(ProxyExt)
	for _, sem := range []string{"frequency", "raw", "none"} {
		f.Add(strings.Replace(ProxyExt, "semantics namelist", "semantics "+sem, 1))
	}
	f.Add(strings.Replace(ProxyExt, "decltype process", "decltype system", 1))
	f.Add(strings.Replace(ProxyExt, "@name0@", "@name9@ @declname", 1))
	f.Fuzz(func(t *testing.T, src string) {
		exts, err := ParseFile("fuzz", src)
		if err != nil {
			return
		}
		InstallAll(sema.NewTables(), exts)
		a := sema.NewAnalyzer()
		InstallAll(a.Tables(), exts)
		file, err := parser.Parse("spec", proxySpec)
		if err != nil {
			t.Fatal(err)
		}
		a.AnalyzeFile(file)
		if _, err := a.Finish(); err != nil {
			return
		}
		for _, e := range exts {
			for tag := range e.Outputs {
				_ = a.Generate(tag, io.Discard)
			}
		}
	})
}

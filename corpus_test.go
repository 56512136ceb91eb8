package nmsl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmsl/internal/consistency"
)

// corpusCase describes the expected verdict of one testdata
// specification.
type corpusCase struct {
	file       string
	consistent bool
	// ext names an NMSL/EXT file to install before compiling.
	ext string
	// kinds are the violation kinds an inconsistent case must include.
	kinds []consistency.Kind
	// simulate runs a 6h virtual simulation on consistent cases.
	simulate bool
	// noFormat skips the round-trip check (extension clauses are not in
	// the typed model, so the canonical printer cannot re-emit them).
	noFormat bool
}

var corpus = []corpusCase{
	{file: "isp.nmsl", consistent: true, simulate: true},
	{file: "types.nmsl", consistent: true},
	{file: "campus-broken.nmsl", consistent: false, kinds: []consistency.Kind{
		KindFrequencyViolation, KindDomainRestriction, KindNoPermission,
	}},
	{file: "machineroom.nmsl", ext: "proxy.nmslext", consistent: true, simulate: true, noFormat: true},
}

// TestCorpus compiles every testdata specification, checks the expected
// verdict with both checkers, round-trips the canonical form, and
// simulates the consistent ones.
func TestCorpus(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCompiler()
			if tc.ext != "" {
				extData, err := os.ReadFile(filepath.Join("testdata", tc.ext))
				if err != nil {
					t.Fatal(err)
				}
				if err := c.AddExtensionSource(tc.ext, string(extData)); err != nil {
					t.Fatalf("extension: %v", err)
				}
			}
			if err := c.CompileSource(path, string(data)); err != nil {
				t.Fatalf("compile: %v", err)
			}
			spec, err := c.Finish()
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}

			rep := spec.Check()
			if rep.Consistent() != tc.consistent {
				t.Fatalf("consistency = %v, want %v:\n%s", rep.Consistent(), tc.consistent, rep)
			}
			for _, k := range tc.kinds {
				if len(rep.ByKind(k)) == 0 {
					t.Errorf("expected a %s violation:\n%s", k, rep)
				}
			}

			// the logic engine must agree
			rep2 := checkEngine(t, spec.Model(), EngineLogic)
			if rep2.Consistent() != tc.consistent || len(rep2.Violations) != len(rep.Violations) {
				t.Fatalf("logic checker disagrees: %d vs %d violations", len(rep2.Violations), len(rep.Violations))
			}

			// canonical form reparses to the same verdict
			if !tc.noFormat {
				var buf strings.Builder
				if err := spec.Format(&buf); err != nil {
					t.Fatal(err)
				}
				c2 := NewCompiler()
				if err := c2.CompileSource(path+".formatted", buf.String()); err != nil {
					t.Fatalf("formatted source does not compile: %v", err)
				}
				spec2, err := c2.Finish()
				if err != nil {
					t.Fatalf("formatted source does not analyze: %v", err)
				}
				rep3 := spec2.Check()
				if rep3.Consistent() != tc.consistent || len(rep3.Violations) != len(rep.Violations) {
					t.Fatalf("round trip changed verdict: %d vs %d violations", len(rep3.Violations), len(rep.Violations))
				}
			}

			if tc.consistent && tc.simulate {
				res, err := spec.Simulate(SimOptions{Duration: 6 * 3600e9, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Clean() {
					t.Fatalf("simulation violations:\n%s", res)
				}
			}
		})
	}
}

// TestCorpusISPStructure spot-checks the richest corpus entry.
func TestCorpusISPStructure(t *testing.T) {
	data, err := os.ReadFile("testdata/isp.nmsl")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler()
	if err := c.CompileSource("isp", string(data)); err != nil {
		t.Fatal(err)
	}
	spec, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Model()
	if len(m.Instances) != 5 {
		t.Errorf("instances %d", len(m.Instances))
	}
	// nocPoller: routerAgent x2 targets x2 vars + customerAgent x1 x2 vars
	// acmeOps: gw.acme.com agent x1 x1 var
	if len(m.Refs) != 7 {
		t.Errorf("refs %d", len(m.Refs))
	}
	configs := spec.AgentConfigs()
	// three agent instances get configurations
	if len(configs) != 3 {
		t.Errorf("configs %d", len(configs))
	}
	cust := configs["customerAgent@gw.acme.com#0"]
	if cust == nil {
		t.Fatalf("missing customer config; have %v", keysOf(configs))
	}
	// the acme domain's restriction keeps both communities but the isp
	// one is clipped to system+interfaces
	if cust.Communities["isp"] == nil || cust.Communities["acme"] == nil {
		t.Fatalf("communities: %+v", cust.Communities)
	}
	if len(cust.Communities["isp"].View) != 2 {
		t.Errorf("isp view: %v", cust.Communities["isp"].View)
	}
}

func keysOf[V any](m map[string]*V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

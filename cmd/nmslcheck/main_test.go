package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmsl/internal/netsim"
	"nmsl/internal/paperspec"
)

func specFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.nmsl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestConsistentExitsZero(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{specFile(t, paperspec.Combined)}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "consistent:") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestInconsistentExitsOne(t *testing.T) {
	src := `
process agent ::= supports mgmt.mib; end process agent.
process poller ::= queries agent requests mgmt.mib.system frequency infrequent; end process poller.
system "h" ::=
    cpu sparc; interface ie0 net l type e speed 10 bps;
    supports mgmt.mib; process agent; process poller;
end system "h".
domain d ::= system h; end domain d.
`
	var out, errb strings.Builder
	code := run([]string{specFile(t, src)}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "no-permission") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestLogicFlagAgrees(t *testing.T) {
	path := specFile(t, paperspec.Combined)
	var a, b, errb strings.Builder
	if code := run([]string{path}, &a, &errb); code != 0 {
		t.Fatal(errb.String())
	}
	if code := run([]string{"-logic", path}, &b, &errb); code != 0 {
		t.Fatal(errb.String())
	}
	if a.String() != b.String() {
		t.Fatalf("checkers disagree:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestWorkersFlagIdenticalOutput(t *testing.T) {
	path := specFile(t, paperspec.Combined)
	var serial, par, errb strings.Builder
	if code := run([]string{"-workers", "1", path}, &serial, &errb); code != 0 {
		t.Fatal(errb.String())
	}
	if code := run([]string{"-workers", "8", path}, &par, &errb); code != 0 {
		t.Fatal(errb.String())
	}
	if serial.String() != par.String() {
		t.Fatalf("worker count changed the report:\n%s\nvs\n%s", serial.String(), par.String())
	}
}

func TestStreamFlag(t *testing.T) {
	src := `
process agent ::= supports mgmt.mib; end process agent.
process poller ::= queries agent requests mgmt.mib.system frequency infrequent; end process poller.
system "h" ::=
    cpu sparc; interface ie0 net l type e speed 10 bps;
    supports mgmt.mib; process agent; process poller;
end system "h".
domain d ::= system h; end domain d.
`
	var out, errb strings.Builder
	code := run([]string{"-stream", "-workers", "2", specFile(t, src)}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[no-permission]") ||
		!strings.Contains(out.String(), "INCONSISTENT: 1 violations") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestFailFastFlag(t *testing.T) {
	src := `
process agent ::= supports mgmt.mib; end process agent.
process poller ::= queries agent requests mgmt.mib.system frequency infrequent; end process poller.
system "h" ::=
    cpu sparc; interface ie0 net l type e speed 10 bps;
    supports mgmt.mib; process agent; process poller;
end system "h".
domain d ::= system h; end domain d.
`
	var out, errb strings.Builder
	if code := run([]string{"-failfast", specFile(t, src)}, &out, &errb); code != 1 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
}

func TestTimeoutExpiredAborts(t *testing.T) {
	// A synthetic 2000-domain internet keeps the check busy long enough
	// that a 1ns deadline always fires mid-scan.
	path := specFile(t, netsim.Source(netsim.Params{Domains: 2000, SystemsPerDomain: 2, Seed: 1}))
	var out, errb strings.Builder
	code := run([]string{"-timeout", "1ns", path}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "check aborted") {
		t.Fatalf("stderr: %q", errb.String())
	}
}

func TestLoadFlag(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-load", specFile(t, paperspec.Combined)}, &out, &errb)
	if code != 0 {
		t.Fatal(errb.String())
	}
	if !strings.Contains(out.String(), "estimated management load") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestProgramFlag(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-program", specFile(t, paperspec.Combined)}, &out, &errb)
	if code != 0 {
		t.Fatal(errb.String())
	}
	if !strings.Contains(out.String(), "inconsistent(") {
		t.Fatalf("output: %q", out.String())
	}
}

var update = flag.Bool("update", false, "rewrite the golden files")

// TestReportGolden pins nmslcheck's plain report on the corpus's
// every-violation-kind specification: the verdict line and each
// violation's rendered message.
func TestReportGolden(t *testing.T) {
	checkGolden(t, "campus-broken.report.golden", "../../testdata/campus-broken.nmsl")
}

// TestProgramGolden pins the whole -program output on the corpus's
// every-violation-kind specification: the report, then the logic
// program the checker solves, whose facts and rules a CLP(R) system can
// run as printed.
func TestProgramGolden(t *testing.T) {
	checkGolden(t, "campus-broken.program.golden", "-program", "../../testdata/campus-broken.nmsl")
}

// checkGolden runs nmslcheck on args, which must exit 1, and compares
// its standard output with testdata/name (rewritten under -update).
func checkGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errb strings.Builder
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if out.String() != string(want) {
		t.Fatalf("output of nmslcheck %s differs from %s:\n%s", strings.Join(args, " "), golden, out.String())
	}
}

func TestSolveFlag(t *testing.T) {
	path := specFile(t, paperspec.Combined)
	var out, errb strings.Builder
	code := run([]string{
		"-solve", "snmpaddr@wisc-cs#0,snmpdReadOnly@romano.cs.wisc.edu#0,mgmt.mib.ip.ipAddrTable.IpAddrEntry,ReadOnly",
		path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[300, +inf)") {
		t.Fatalf("output: %q", out.String())
	}
	// write access -> empty set -> exit 1
	out.Reset()
	code = run([]string{
		"-solve", "snmpaddr@wisc-cs#0,snmpdReadOnly@romano.cs.wisc.edu#0,mgmt.mib.ip.ipAddrTable.IpAddrEntry,WriteOnly",
		path}, &out, &errb)
	if code != 1 || !strings.Contains(out.String(), "∅") {
		t.Fatalf("exit %d output %q", code, out.String())
	}
}

func TestSolveErrors(t *testing.T) {
	path := specFile(t, paperspec.Combined)
	var out, errb strings.Builder
	if code := run([]string{"-solve", "too,few", path}, &out, &errb); code != 2 {
		t.Errorf("bad solve args: exit %d", code)
	}
	if code := run([]string{"-solve", "a,b,c,Sometimes", path}, &out, &errb); code != 2 {
		t.Errorf("bad access: exit %d", code)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no files: exit %d", code)
	}
	if code := run([]string{"/missing.nmsl"}, &out, &errb); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
}

func TestSimulateFlag(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-simulate", "12h", specFile(t, paperspec.Combined)}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "simulated 12h0m0s") {
		t.Fatalf("output: %q", out.String())
	}
}

// TestContractFlag drives the change-contract mode: an edit outside
// the contract's scope exits 1 with the violation listed; a ring-wide
// contract accepts the same edit.
func TestContractFlag(t *testing.T) {
	p := netsim.Params{Domains: 3, SystemsPerDomain: 1, Seed: 5}
	base := netsim.Source(p)
	anchor := "queries agentT0\n        requests mgmt.mib.system.sysDescr\n        frequency >= 5 minutes;"
	if strings.Count(base, anchor) != 1 {
		t.Fatal("edit anchor not unique in netsim source")
	}
	edited := strings.Replace(base, anchor,
		strings.Replace(anchor, ">= 5 minutes", ">= 10 minutes", 1), 1)

	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	basePath := write("base.nmsl", base)
	newPath := write("new.nmsl", edited)
	scoped := write("gate.ncs", "contract only-dom0 ::=\n    scope dom0;\nend contract only-dom0.\n")
	ringWide := write("wide.ncs", "contract ring-wide ::=\n    scope public;\n    forbid widen-access;\nend contract ring-wide.\n")

	var out, errb strings.Builder
	code := run([]string{"-contract", scoped, "-baseline", basePath, newPath}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "VIOLATED") || !strings.Contains(out.String(), "outside contract scope") {
		t.Fatalf("output: %q", out.String())
	}

	out.Reset()
	code = run([]string{"-contract", ringWide, "-baseline", basePath, newPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "contract ring-wide: OK") {
		t.Fatalf("output: %q", out.String())
	}

	// Usage errors: no baseline, unparseable contract text.
	if code := run([]string{"-contract", scoped, newPath}, &out, &errb); code != 2 {
		t.Errorf("-contract without -baseline: exit %d", code)
	}
	broken := write("broken.ncs", "contract broken")
	if code := run([]string{"-contract", broken, "-baseline", basePath, newPath}, &out, &errb); code != 2 {
		t.Errorf("broken contract: exit %d", code)
	}
}

func TestCacheFlag(t *testing.T) {
	path := specFile(t, paperspec.Combined)
	dir := filepath.Join(t.TempDir(), "cache")

	// Cold run: the cache directory is created and every verdict misses.
	var cold, errb strings.Builder
	if code := run([]string{"-cache", dir, path}, &cold, &errb); code != 0 {
		t.Fatalf("cold exit %d: %s", code, errb.String())
	}
	if !strings.Contains(cold.String(), "cache: 0 hits") {
		t.Fatalf("cold output: %q", cold.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "nmslcheck.cache.json")); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}

	// Warm run: every verdict replays; the verdict itself is unchanged.
	var warm strings.Builder
	errb.Reset()
	if code := run([]string{"-cache", dir, path}, &warm, &errb); code != 0 {
		t.Fatalf("warm exit %d: %s", code, errb.String())
	}
	if !strings.Contains(warm.String(), "hits, 0 misses") || strings.Contains(warm.String(), "cache: 0 hits") {
		t.Fatalf("warm output: %q", warm.String())
	}
	coldVerdict := cold.String()[:strings.Index(cold.String(), "cache:")]
	warmVerdict := warm.String()[:strings.Index(warm.String(), "cache:")]
	if coldVerdict != warmVerdict {
		t.Fatalf("warm verdict diverges:\n%q\nvs\n%q", warmVerdict, coldVerdict)
	}

	// A corrupt cache file warns and degrades to a cold start.
	if err := os.WriteFile(filepath.Join(dir, "nmslcheck.cache.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out3 strings.Builder
	errb.Reset()
	if code := run([]string{"-cache", dir, path}, &out3, &errb); code != 0 {
		t.Fatalf("corrupt-cache exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "ignoring cache") {
		t.Fatalf("stderr: %q", errb.String())
	}

	// -cache is indexed-engine only.
	errb.Reset()
	if code := run([]string{"-cache", dir, "-logic", path}, &out3, &errb); code != 2 {
		t.Fatalf("-cache -logic exit %d, want 2", code)
	}
}

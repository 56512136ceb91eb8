package consistency

import (
	"fmt"
	"strings"
	"testing"

	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
)

func TestConsistencyOutput(t *testing.T) {
	f, err := parser.Parse("paper", paperspec.Combined)
	if err != nil {
		t.Fatal(err)
	}
	a := sema.NewAnalyzer()
	RegisterOutput(a.Tables())
	a.AnalyzeFile(f)
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := a.Generate(OutputTag, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"type_spec(ipAddrTable).",
		"type_access(ipAddrTable,readonly).",
		"type_ref(ipAddrTable,'IpAddrEntry').",
		"proc_supports(snmpdReadOnly,'mgmt.mib').",
		"proc_export(snmpdReadOnly,public,'mgmt.mib',readonly,300,ge).",
		"proc_query(snmpaddr,'SysAddr','mgmt.mib.ip.ipAddrTable.IpAddrEntry',readonly,infrequent,ge).",
		"system_spec('romano.cs.wisc.edu',sparc).",
		"sys_interface('romano.cs.wisc.edu',ie0,'wisc-research','ethernet-csmacd',10000000).",
		"sys_runs('romano.cs.wisc.edu',snmpdReadOnly,0).",
		"domain_spec('wisc-cs').",
		"dom_member_system('wisc-cs','romano.cs.wisc.edu').",
		"dom_instance('wisc-cs',snmpaddr,0).",
		"dom_export('wisc-cs',public,'mgmt.mib',readonly,300,ge).",
		"dom_member_domain(public,'wisc-cs').",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("missing fact %q in output:\n%s", w, out)
		}
	}
}

// programScanner reads the subset of Prolog a printed program uses:
// clauses over several lines, % comments, plain and quoted atoms,
// variables, numbers and rationals, compound terms, \+ over a goal or a
// parenthesized conjunction, arithmetic comparisons, and dynamic
// declarations.
type programScanner struct {
	toks []string
	pos  int
	// defined and called collect predicate indicators (name/arity).
	defined, called map[string]bool
}

func scanProgram(text string) (*programScanner, error) {
	p := &programScanner{defined: map[string]bool{}, called: map[string]bool{}}
	for i := 0; i < len(text); {
		c := text[i]
		switch {
		case c == '%':
			for i < len(text) && text[i] != '\n' {
				i++
			}
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '\'':
			j := i + 1
			for ; j < len(text) && text[j] != '\''; j++ {
				if text[j] == '\\' {
					j++
				}
			}
			if j >= len(text) {
				return nil, fmt.Errorf("unterminated quoted atom at %d", i)
			}
			p.toks = append(p.toks, text[i:j+1])
			i = j + 1
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9':
			j := i
			for j < len(text) && (text[j] == '_' || text[j] >= 'a' && text[j] <= 'z' || text[j] >= 'A' && text[j] <= 'Z' || text[j] >= '0' && text[j] <= '9') {
				j++
			}
			p.toks = append(p.toks, text[i:j])
			i = j
		default:
			n := 1
			for _, op := range []string{":-", "\\+", ">=", "=<"} {
				if strings.HasPrefix(text[i:], op) {
					n = len(op)
				}
			}
			p.toks = append(p.toks, text[i:i+n])
			i += n
		}
	}
	for p.pos < len(p.toks) {
		if err := p.clause(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *programScanner) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *programScanner) expect(tok string) error {
	if got := p.peek(); got != tok {
		return fmt.Errorf("token %d: got %q, want %q (near %q)", p.pos, got, tok, p.toks[max(0, p.pos-8):p.pos])
	}
	p.pos++
	return nil
}

// clause reads one clause or directive through its closing period.
func (p *programScanner) clause() error {
	if p.peek() == ":-" {
		p.pos++
		if err := p.expect("dynamic"); err != nil {
			return err
		}
		name := p.peek()
		p.pos++
		if err := p.expect("/"); err != nil {
			return err
		}
		p.defined[name+"/"+p.peek()] = true
		p.pos++
		return p.expect(".")
	}
	ind, err := p.term()
	if err != nil {
		return err
	}
	p.defined[ind] = true
	if p.peek() == ":-" {
		p.pos++
		if err := p.conj(); err != nil {
			return err
		}
	}
	return p.expect(".")
}

func (p *programScanner) conj() error {
	for {
		if err := p.goal(); err != nil {
			return err
		}
		if p.peek() != "," {
			return nil
		}
		p.pos++
	}
}

func (p *programScanner) goal() error {
	switch p.peek() {
	case "\\+":
		p.pos++
		return p.goal()
	case "(":
		p.pos++
		if err := p.conj(); err != nil {
			return err
		}
		return p.expect(")")
	}
	ind, err := p.term()
	if err != nil {
		return err
	}
	switch p.peek() {
	case ">=", ">", "<", "=<", "=":
		p.pos++
		_, err := p.term()
		return err
	}
	if ind == "" {
		return fmt.Errorf("token %d: a variable or number called as a goal", p.pos)
	}
	p.called[ind] = true
	return nil
}

// term reads a term and returns its indicator ("" for a variable or a
// number).
func (p *programScanner) term() (string, error) {
	tok := p.peek()
	p.pos++
	if tok == "" || tok[0] == '_' || tok[0] >= 'A' && tok[0] <= 'Z' {
		return "", nil
	}
	if tok[0] >= '0' && tok[0] <= '9' {
		if p.peek() == "/" {
			p.pos += 2
		}
		return "", nil
	}
	name := strings.Trim(tok, "'")
	if p.peek() != "(" {
		return name + "/0", nil
	}
	p.pos++
	arity := 0
	for {
		if _, err := p.term(); err != nil {
			return "", err
		}
		arity++
		if p.peek() != "," {
			break
		}
		p.pos++
	}
	if err := p.expect(")"); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s/%d", name, arity), nil
}

// TestProgramClosed holds the program -program prints to what a CLP(R)
// system needs to run it: on every testdata specification and the
// paper's, each predicate a clause body calls is defined by a printed
// clause or declared dynamic, and the program defines the check's
// entry points and derives the Figure 4.9 facts.
func TestProgramClosed(t *testing.T) {
	for name, m := range parityModels(t) {
		t.Run(name, func(t *testing.T) {
			var b strings.Builder
			if err := BuildDBRecursive(m).Write(&b); err != nil {
				t.Fatal(err)
			}
			p, err := scanProgram(b.String())
			if err != nil {
				t.Fatalf("unreadable program: %v\n%s", err, b.String())
			}
			for ind := range p.called {
				if !p.defined[ind] {
					t.Errorf("%s is called but never defined", ind)
				}
			}
			for _, ind := range []string{"inconsistent/6", "permitted/6", "violates_restriction/6", "support_ok/2"} {
				if !p.defined[ind] {
					t.Errorf("the program does not define %s", ind)
				}
			}
		})
	}
	var b strings.Builder
	if err := BuildDBRecursive(buildModel(t, paperspec.Combined)).Write(&b); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{
		"instan('romano.cs.wisc.edu',snmpdReadOnly,'snmpdReadOnly@romano.cs.wisc.edu#0').",
		"contains('wisc-cs','romano.cs.wisc.edu').",
		"perm(public,'snmpdReadOnly@romano.cs.wisc.edu#0','mgmt.mib',readonly,300,ge).",
		"dom_perm('wisc-cs',public,'mgmt.mib',readonly,300,ge).",
		"restricts('wisc-cs').",
		"ref('snmpaddr@wisc-cs#0','snmpdReadOnly@romano.cs.wisc.edu#0','mgmt.mib.ip.ipAddrTable.IpAddrEntry',readonly,infrequent,ge).",
	} {
		if !strings.Contains(b.String(), "\n"+w+"\n") {
			t.Errorf("missing derived fact %q in:\n%s", w, b.String())
		}
	}
}

func TestEstimateLoad(t *testing.T) {
	m := buildModel(t, freqSpec)
	rep := EstimateLoad(m, LoadOptions{})
	// poller queries agent every 60s -> 1/60 q/s at the agent
	rate := rep.InstanceRate["agent@host-a#0"]
	if rate < 0.016 || rate > 0.017 {
		t.Fatalf("rate %v", rate)
	}
	if got := rep.SystemRate["host-a"]; got != rate {
		t.Errorf("system rate %v", got)
	}
	if bits := rep.NetworkBits["lab"]; bits != rate*2048 {
		t.Errorf("network bits %v", bits)
	}
	if len(rep.Warnings) != 0 {
		t.Errorf("warnings: %v", rep.Warnings)
	}
	if !strings.Contains(rep.String(), "agent") {
		t.Error("report rendering")
	}
}

func TestEstimateLoadWarnings(t *testing.T) {
	// A 9600 bps serial line saturates immediately at one query per
	// second of 2048 bits.
	src := strings.Replace(freqSpec, "speed 10000000 bps", "speed 9600 bps", -1)
	src = strings.Replace(src, "frequency >= 1 minutes", "frequency >= 1 seconds", 1)
	src = strings.Replace(src, "frequency >= 5 minutes", "frequency >= 1 seconds", 1)
	m := buildModel(t, src)
	rep := EstimateLoad(m, LoadOptions{})
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "management traffic") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected utilization warning, got %v", rep.Warnings)
	}
}

func TestEstimateLoadInfrequentAndDefault(t *testing.T) {
	src := strings.Replace(freqSpec, "frequency >= 1 minutes", "frequency infrequent", 1)
	m := buildModel(t, src)
	rep := EstimateLoad(m, LoadOptions{InfrequentPeriod: 100})
	if got := rep.InstanceRate["agent@host-a#0"]; got != 0.01 {
		t.Fatalf("infrequent rate %v", got)
	}
	src2 := strings.Replace(freqSpec, "\n        frequency >= 1 minutes", "", 1)
	m2 := buildModel(t, src2)
	rep2 := EstimateLoad(m2, LoadOptions{DefaultPeriod: 10})
	if got := rep2.InstanceRate["agent@host-a#0"]; got != 0.1 {
		t.Fatalf("default rate %v", got)
	}
}

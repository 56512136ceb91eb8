package changespec

import (
	"strings"
	"testing"
)

const fullContract = `
contract safe-edit ::=
    scope dom3, dom5;
    forbid widen-access;
    forbid relax-frequency;
    max added instances 2;
    max removed instances 0;
    max added permissions 4;
    max removed permissions 1;
end contract safe-edit.
`

func TestParseContract(t *testing.T) {
	cs, err := Parse("safe.ncs", fullContract)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Fatalf("got %d contracts, want 1", len(cs))
	}
	c := cs[0]
	if c.Name != "safe-edit" {
		t.Errorf("name %q", c.Name)
	}
	if got, want := strings.Join(c.Scope, ","), "dom3,dom5"; got != want {
		t.Errorf("scope %q, want %q", got, want)
	}
	if !c.ForbidWidenAccess || !c.ForbidRelaxFrequency {
		t.Errorf("forbid flags: widen=%v relax=%v", c.ForbidWidenAccess, c.ForbidRelaxFrequency)
	}
	if c.MaxAddedInstances != 2 || c.MaxRemovedInstances != 0 ||
		c.MaxAddedPermissions != 4 || c.MaxRemovedPermissions != 1 {
		t.Errorf("bounds: %+v", c)
	}
}

func TestParseContractDefaults(t *testing.T) {
	cs, err := Parse("min.ncs", "contract anything-goes ::= end contract anything-goes.")
	if err != nil {
		t.Fatal(err)
	}
	c := cs[0]
	if len(c.Scope) != 0 || c.ForbidWidenAccess || c.ForbidRelaxFrequency {
		t.Errorf("unexpected restrictions: %+v", c)
	}
	for _, n := range []int{c.MaxAddedInstances, c.MaxRemovedInstances, c.MaxAddedPermissions, c.MaxRemovedPermissions} {
		if n != -1 {
			t.Errorf("bound %d, want -1 (unbounded)", n)
		}
	}
}

func TestParseMultipleContracts(t *testing.T) {
	cs, err := Parse("two.ncs", `
contract a ::= scope dom1; end contract a.
contract b ::= forbid widen-access; end contract b.
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Name != "a" || cs[1].Name != "b" {
		t.Fatalf("got %v", cs)
	}
}

func TestParseQuotedScope(t *testing.T) {
	cs, err := Parse("q.ncs", `contract q ::= scope "Computer Sciences", dom1; end contract q.`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(cs[0].Scope, "|"); got != "Computer Sciences|dom1" {
		t.Errorf("scope %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty file", "-- nothing here", "no contract declarations"},
		{"wrong decl type", "domain d ::= end domain d.", "only contract declarations"},
		{"params", "contract c(A: Process) ::= end contract c.", "no parameters"},
		{"unknown clause", "contract c ::= widen everything; end contract c.", "unknown clause"},
		{"empty scope", "contract c ::= scope; end contract c.", "names no domains"},
		{"trailing comma", "contract c ::= scope dom1,; end contract c.", "ends with a comma"},
		{"bad forbid", "contract c ::= forbid bad-things; end contract c.", "unknown property"},
		{"forbid arity", "contract c ::= forbid; end contract c.", "exactly one"},
		{"bad max subject", "contract c ::= max added domains 3; end contract c.", "unknown subject"},
		{"max arity", "contract c ::= max added instances; end contract c.", "max clause wants"},
		{"max non-int", "contract c ::= max added instances lots; end contract c.", "max clause wants"},
		{"duplicate max", "contract c ::= max added instances 1; max added instances 2; end contract c.", "duplicate max"},
		{"deep nesting", "contract c ::= scope " + strings.Repeat("(", 1_000_000) + "; end contract c.", "nesting deeper than 1000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("bad.ncs", tc.src)
			if err == nil {
				t.Fatalf("no error for %.80q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Errors must carry the conventional file:line:col prefix so editors
// can jump to them.
func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("pos.ncs", "contract c ::=\n    forbid bad-things;\nend contract c.")
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "pos.ncs:2:") {
		t.Errorf("error %q lacks pos.ncs:2: prefix", err)
	}
}

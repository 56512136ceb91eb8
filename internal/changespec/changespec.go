// Package changespec implements NMSL change contracts: declarative
// bounds on what a specification edit may do, verified relationally
// against the delta between the pre- and post-edit models.
//
// The paper's checker proves properties of a specification snapshot.
// Operationally, the dangerous object is not a snapshot but a change:
// an operator edits a 10,000-domain specification intending to retune
// one poller, and wants a machine-checked guarantee that the edit's
// blast radius is what they declared — it touches only refs under
// domain X, widens no access mode, relaxes no frequency bound, and
// adds or removes at most N instances or permissions ("Relational
// Network Verification", SIGCOMM '24, makes the general case for
// verifying changes rather than snapshots).
//
// A contract is written in NMSL's declaration grammar (the generic
// parser of internal/parser does pass 1; this package is pass 2, the
// same two-pass structure as internal/sema):
//
//	contract safe-edit ::=
//	    scope dom3, dom5;
//	    forbid widen-access;
//	    forbid relax-frequency;
//	    max added instances 2;
//	    max removed instances 0;
//	    max added permissions 2;
//	    max removed permissions 0;
//	end contract safe-edit.
//
// Checking a contract (see Checker) consumes the same ModelDelta that
// drives incremental re-checking, so on a warm delta its cost is
// proportional to the edit, not the internet.
package changespec

import (
	"fmt"

	"nmsl/internal/parser"
	"nmsl/internal/token"
)

// Clause slugs, used both as Contract field discriminators in
// violations and as the keywords of the contract language.
const (
	ClauseScope             = "scope"
	ClauseWidenAccess       = "widen-access"
	ClauseRelaxFrequency    = "relax-frequency"
	ClauseMaxAddedInstances = "max-added-instances"
	ClauseMaxRemovedInsts   = "max-removed-instances"
	ClauseMaxAddedPerms     = "max-added-permissions"
	ClauseMaxRemovedPerms   = "max-removed-permissions"
)

// Contract is one parsed change contract. The zero limits mean
// "unbounded" is spelled -1; a freshly parsed contract has every Max*
// field it does not mention set to -1.
type Contract struct {
	Name string
	// Scope lists the domains the edit may touch: every instance the
	// delta dirties, and every changed domain, must be contained in at
	// least one of them. Empty means unscoped.
	Scope []string
	// ForbidWidenAccess rejects any grant whose (grantee, data, access)
	// shape is not covered by a pre-edit grant from the same
	// declaration site. Replicating an existing export onto a new
	// instance is not widening (the added-permissions bound governs it).
	ForbidWidenAccess bool
	// ForbidRelaxFrequency rejects lowering any matched permission's
	// minimum-period bound (or weakening ">" to ">=").
	ForbidRelaxFrequency bool
	// MaxAddedInstances / MaxRemovedInstances bound how many instances
	// the edit may create or destroy; -1 means unbounded.
	MaxAddedInstances   int
	MaxRemovedInstances int
	// MaxAddedPermissions / MaxRemovedPermissions bound how many grant
	// slots (declaring site, grantee, data subtree) the edit may create
	// or destroy; -1 means unbounded.
	MaxAddedPermissions   int
	MaxRemovedPermissions int
}

// errorf renders a pass-2 error with the conventional file:line:col
// prefix.
func errorf(file string, pos token.Pos, format string, args ...any) error {
	return fmt.Errorf("%s:%s: %s", file, pos, fmt.Sprintf(format, args...))
}

// Parse parses change-contract source text (conventionally a .ncs
// file): pass 1 is the generic NMSL declaration parser, pass 2 is
// FromFile.
func Parse(name, src string) ([]*Contract, error) {
	f, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return FromFile(f)
}

// FromFile interprets an already-parsed file as change contracts.
// Every declaration must be a contract; a file with none is an error
// (an empty contract file silently gating nothing is always a
// mistake).
func FromFile(f *parser.File) ([]*Contract, error) {
	var out []*Contract
	for _, d := range f.Decls {
		if d.Type != "contract" {
			return nil, errorf(f.Name, d.Pos, "%s %q: change-contract files hold only contract declarations", d.Type, d.Name)
		}
		c, err := fromDecl(f.Name, d)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no contract declarations", f.Name)
	}
	return out, nil
}

// fromDecl interprets one contract declaration's clauses.
func fromDecl(file string, d *parser.Decl) (*Contract, error) {
	if len(d.Params) > 0 {
		return nil, errorf(file, d.Pos, "contract %s: contracts take no parameters", d.Name)
	}
	c := &Contract{
		Name:                  d.Name,
		MaxAddedInstances:     -1,
		MaxRemovedInstances:   -1,
		MaxAddedPermissions:   -1,
		MaxRemovedPermissions: -1,
	}
	for _, cl := range d.Clauses {
		var err error
		switch cl.Keyword() {
		case "scope":
			err = c.parseScope(file, cl)
		case "forbid":
			err = c.parseForbid(file, cl)
		case "max":
			err = c.parseMax(file, cl)
		default:
			err = errorf(file, cl.Pos, "contract %s: unknown clause %q (want scope, forbid or max)", d.Name, cl.Keyword())
		}
		if err != nil {
			return nil, fmt.Errorf("contract %s: %w", d.Name, err)
		}
	}
	return c, nil
}

// parseScope handles "scope dom1, dom2;". Repeated scope clauses
// accumulate.
func (c *Contract) parseScope(file string, cl *parser.Clause) error {
	items := cl.Items[1:]
	if len(items) == 0 {
		return errorf(file, cl.Pos, "scope clause names no domains")
	}
	wantName := true
	for i := range items {
		it := &items[i]
		switch {
		case wantName && (it.Kind == parser.Word || it.Kind == parser.Str):
			c.Scope = append(c.Scope, it.Text)
			wantName = false
		case !wantName && it.Kind == parser.Op && it.Text == ",":
			wantName = true
		default:
			return errorf(file, it.Pos, "scope clause: unexpected %s %q (want a comma-separated domain list)", it.Kind, it.Text)
		}
	}
	if wantName {
		return errorf(file, cl.Pos, "scope clause ends with a comma")
	}
	return nil
}

// parseForbid handles "forbid widen-access;" and
// "forbid relax-frequency;".
func (c *Contract) parseForbid(file string, cl *parser.Clause) error {
	if len(cl.Items) != 2 || cl.Items[1].Kind != parser.Word {
		return errorf(file, cl.Pos, "forbid clause wants exactly one of widen-access, relax-frequency")
	}
	switch cl.Items[1].Text {
	case ClauseWidenAccess:
		c.ForbidWidenAccess = true
	case ClauseRelaxFrequency:
		c.ForbidRelaxFrequency = true
	default:
		return errorf(file, cl.Items[1].Pos, "forbid clause: unknown property %q (want widen-access or relax-frequency)", cl.Items[1].Text)
	}
	return nil
}

// parseMax handles "max added|removed instances|permissions N;".
func (c *Contract) parseMax(file string, cl *parser.Clause) error {
	if len(cl.Items) != 4 || cl.Items[1].Kind != parser.Word ||
		cl.Items[2].Kind != parser.Word || cl.Items[3].Kind != parser.Int {
		return errorf(file, cl.Pos, "max clause wants: max added|removed instances|permissions <n>")
	}
	dir, what := cl.Items[1].Text, cl.Items[2].Text
	n := cl.Items[3].IntVal()
	if n < 0 { // the lexer produces unsigned ints; guard anyway
		return errorf(file, cl.Items[3].Pos, "max clause: negative bound %d", n)
	}
	var slot *int
	switch {
	case dir == "added" && what == "instances":
		slot = &c.MaxAddedInstances
	case dir == "removed" && what == "instances":
		slot = &c.MaxRemovedInstances
	case dir == "added" && what == "permissions":
		slot = &c.MaxAddedPermissions
	case dir == "removed" && what == "permissions":
		slot = &c.MaxRemovedPermissions
	default:
		return errorf(file, cl.Pos, "max clause: unknown subject %q %q (want added|removed instances|permissions)", dir, what)
	}
	if *slot >= 0 {
		return errorf(file, cl.Pos, "duplicate max %s %s clause", dir, what)
	}
	*slot = int(n)
	return nil
}

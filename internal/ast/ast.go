// Package ast defines the typed specification model that the NMSL
// compiler's second pass builds from the generic parse tree: type,
// process, network element (system) and domain specifications (paper
// sections 4.1.2 through 4.1.5).
//
// The model deliberately mirrors the paper's split between abstractions
// (types and processes) and instantiations (systems and domains): "This
// allows the management information to be specified independent of its
// use … many network elements will store the same types of management
// data, and run network management software derived from the same
// source."
package ast

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nmsl/internal/asn1"
	"nmsl/internal/mib"
	"nmsl/internal/parser"
	"nmsl/internal/token"
)

// Freq is a query-frequency constraint (Figure 4.3: Freq ::= BoundSpec
// Float TimeSpec | "infrequent"). Frequencies in NMSL are expressed as
// periods: "frequency >= 5 minutes" constrains interactions to at most
// one per 5 minutes.
type Freq struct {
	// Infrequent marks the paper's "infrequent" keyword: the interaction
	// happens rarely, with no specific period.
	Infrequent bool
	// Op is one of "<", "<=", ">", ">=" or "" for an exact period.
	Op string
	// Seconds is the period bound in seconds.
	Seconds float64
	Pos     token.Pos
}

// Unspecified reports whether no frequency clause was given.
func (f Freq) Unspecified() bool { return !f.Infrequent && f.Op == "" && f.Seconds == 0 }

// MinPeriodSeconds returns the smallest period the constraint admits
// between interactions, i.e. a lower bound on spacing. "infrequent" and
// unspecified return 0 (no guarantee expressed as a bound by ">" forms);
// "< T"/"<= T" promise nothing about spacing and also return 0.
func (f Freq) MinPeriodSeconds() float64 {
	switch f.Op {
	case ">", ">=", "":
		if f.Infrequent {
			return 0
		}
		return f.Seconds
	}
	return 0
}

// String renders the constraint in NMSL syntax.
func (f Freq) String() string { return string(f.AppendTo(nil)) }

// AppendTo appends the String form of the constraint to b and returns
// the extended slice, so a caller rendering many constraints into one
// buffer allocates nothing per constraint.
func (f Freq) AppendTo(b []byte) []byte {
	if f.Infrequent {
		return append(b, "infrequent"...)
	}
	if f.Unspecified() {
		return append(b, "unspecified"...)
	}
	unit, val := "seconds", f.Seconds
	switch {
	case f.Seconds >= 3600 && f.Seconds == float64(int64(f.Seconds/3600))*3600:
		unit, val = "hours", f.Seconds/3600
	case f.Seconds >= 60 && f.Seconds == float64(int64(f.Seconds/60))*60:
		unit, val = "minutes", f.Seconds/60
	}
	if f.Op != "" {
		b = append(b, f.Op...)
		b = append(b, ' ')
	}
	b = strconv.AppendFloat(b, val, 'g', -1, 64) // fmt's %g
	b = append(b, ' ')
	return append(b, unit...)
}

// unitSeconds maps the TimeSpec keywords of Figure 4.3.
var unitSeconds = map[string]float64{
	"hours":   3600,
	"minutes": 60,
	"seconds": 1,
}

// ParseFreq parses the items following a "frequency" keyword:
// either "infrequent", or [op] number unit.
func ParseFreq(items []parser.Item) (Freq, error) {
	if len(items) == 0 {
		return Freq{}, fmt.Errorf("frequency clause is empty")
	}
	if items[0].IsWord("infrequent") {
		if len(items) != 1 {
			return Freq{}, fmt.Errorf("unexpected %s after \"infrequent\"", items[1].String())
		}
		return Freq{Infrequent: true, Pos: items[0].Pos}, nil
	}
	f := Freq{Pos: items[0].Pos}
	i := 0
	if items[0].Kind == parser.Op {
		switch items[0].Text {
		case "<", "<=", ">", ">=":
			f.Op = items[0].Text
			i++
		default:
			return Freq{}, fmt.Errorf("bad frequency bound %q", items[0].Text)
		}
	}
	if i >= len(items) {
		return Freq{}, fmt.Errorf("frequency bound %q missing value", f.Op)
	}
	var val float64
	switch items[i].Kind {
	case parser.Int:
		val = float64(items[i].IntVal())
	case parser.Float:
		val = items[i].FloatVal()
		if val == 0 && items[i].Text != "0" {
			return Freq{}, fmt.Errorf("bad frequency value %q", items[i].Text)
		}
	default:
		return Freq{}, fmt.Errorf("expected frequency value, found %s", items[i].String())
	}
	i++
	if i >= len(items) || items[i].Kind != parser.Word {
		return Freq{}, fmt.Errorf("frequency value missing time unit (hours, minutes or seconds)")
	}
	mul, ok := unitSeconds[items[i].Text]
	if !ok {
		return Freq{}, fmt.Errorf("unknown time unit %q", items[i].Text)
	}
	i++
	if i != len(items) {
		return Freq{}, fmt.Errorf("unexpected %s after frequency", items[i].String())
	}
	f.Seconds = val * mul
	return f, nil
}

// TypeSpec is an NMSL type specification (section 4.1.2, Figure 4.1).
type TypeSpec struct {
	Name string
	// Body is the parsed ASN.1 type.
	Body *asn1.Type
	// Access is the declared access mode; AccessUnspecified inherits from
	// any containing type that uses this type (Figure 4.2).
	Access mib.Access
	Decl   *parser.Decl
}

// Export is an exports subclause: permission for another domain to access
// MIB variables (Figure 4.3: ExSpec).
type Export struct {
	// Vars are the exported MIB variable subtrees (dotted names).
	Vars []string
	// To names the domain the export is granted to.
	To string
	// Access is the granted access mode.
	Access mib.Access
	// Freq bounds how often the importing domain may query.
	Freq Freq
	Pos  token.Pos
}

// Selection is one "var := value" binding in a query's using clause.
type Selection struct {
	// Var is the MIB variable being constrained.
	Var string
	// Value is the raw item: a parameter name, literal, or "*".
	Value parser.Item
	Pos   token.Pos
}

// Query is a queries subclause: an interaction this process initiates
// (Figure 4.3: QrySpec). Figure 4.3 shows retrieval queries; the full
// language also supports modification and remote execution, expressed
// here by Access.
type Query struct {
	// Target is the queried process: a process name, or the name of a
	// Process-typed parameter (Figure 4.4's SysAddr).
	Target string
	// Requests are the requested MIB variables.
	Requests []string
	// Using are the selection bindings.
	Using []Selection
	// Access is the access mode the query needs: ReadOnly for retrieval
	// (the default), WriteOnly for modification, Any for remote execution.
	Access mib.Access
	// Freq bounds how often the query is made.
	Freq Freq
	Pos  token.Pos
}

// ProcParam is a formal process parameter (Figure 4.3: Param).
type ProcParam struct {
	Name string
	// Type is the parameter's type: an NMSL type name or the built-in
	// "Process" (Figure 4.4).
	Type string
	Pos  token.Pos
}

// ProcessSpec is a process specification (section 4.1.3): an abstraction
// describing a management process's supported data, exports, and queries.
type ProcessSpec struct {
	Name   string
	Params []ProcParam
	// Supports lists the MIB subtrees this process stores and can answer
	// queries for (making it an agent for that data).
	Supports []string
	// Exports are the permissions this process grants.
	Exports []Export
	// Queries are the interactions this process initiates.
	Queries []Query
	Decl    *parser.Decl
}

// IsAgent reports whether the process stores management data (supports a
// MIB view); the paper calls such processes agents, and processes that
// only initiate requests applications.
func (p *ProcessSpec) IsAgent() bool { return len(p.Supports) > 0 }

// Param returns the formal parameter with the given name, or nil.
func (p *ProcessSpec) Param(name string) *ProcParam {
	for i := range p.Params {
		if p.Params[i].Name == name {
			return &p.Params[i]
		}
	}
	return nil
}

// ArgKind classifies instantiation arguments.
type ArgKind int

const (
	// ArgStar is the "*" late-binding placeholder (Figure 4.8): the value
	// is supplied when the process is run.
	ArgStar ArgKind = iota
	// ArgString is a quoted string value.
	ArgString
	// ArgWord is an identifier value (e.g. a process name).
	ArgWord
	// ArgNumber is a numeric value.
	ArgNumber
)

// Arg is one actual argument of a process instantiation.
type Arg struct {
	Kind ArgKind
	Text string
	Num  float64
	Pos  token.Pos
}

// String renders the argument in NMSL syntax.
func (a Arg) String() string {
	switch a.Kind {
	case ArgStar:
		return "*"
	case ArgString:
		return fmt.Sprintf("%q", a.Text)
	case ArgNumber:
		return a.Text
	default:
		return a.Text
	}
}

// ProcInstance is a process instantiation on a system or in a domain
// (Figure 4.5: ProcInvoke; Figure 4.8).
type ProcInstance struct {
	// Name is the instantiated process type's name.
	Name string
	Args []Arg
	Pos  token.Pos
}

// String renders the instantiation in NMSL syntax.
func (pi ProcInstance) String() string {
	if len(pi.Args) == 0 {
		return pi.Name
	}
	parts := make([]string, len(pi.Args))
	for i, a := range pi.Args {
		parts[i] = a.String()
	}
	return pi.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Interface is one network interface of a network element (Figure 4.5:
// IfSpec).
type Interface struct {
	// Name is the interface identifier, e.g. "ie0".
	Name string
	// Net names the physical network the interface connects to.
	Net string
	// Protocols lists the protocols spoken on the interface.
	Protocols []string
	// Type is the interface type, e.g. "ethernet-csmacd".
	Type string
	// SpeedBPS is the nominal speed in bits per second. The paper notes
	// the speed matters for deciding whether the element can answer
	// management queries in time.
	SpeedBPS int64
	Pos      token.Pos
}

// SystemSpec is a network element specification (section 4.1.4): the
// physical properties of one device and what is instantiated on it.
type SystemSpec struct {
	Name string
	// CPU is the processor type, e.g. "sparc".
	CPU string
	// Interfaces are the element's network attachments.
	Interfaces []Interface
	// OpSys and OpSysVersion describe the operating system.
	OpSys        string
	OpSysVersion string
	// Supports lists the MIB subtrees this element's hardware and OS
	// support (instantiate).
	Supports []string
	// Processes are the management processes expected to run here.
	Processes []ProcInstance
	Decl      *parser.Decl
}

// DomainSpec is a domain specification (section 4.1.5): an administrative
// grouping of systems, processes and subdomains, with exports describing
// what other domains may access.
type DomainSpec struct {
	Name string
	// Systems are member network elements (by name).
	Systems []string
	// Subdomains are member domains (by name); domains may nest and
	// overlap.
	Subdomains []string
	// Processes are instantiated in the domain without naming a system.
	Processes []ProcInstance
	// Exports are domain-level permissions. The paper notes the
	// redundancy with process exports is deliberate: it is part of the
	// consistency mechanism and may further restrict access.
	Exports []Export
	Decl    *parser.Decl
}

// ExtClause is clause data captured by an extension-defined generic
// action (section 6.3). Extensions extend the basic language without
// changing the typed model's shape, so their data lives in this generic
// side store, keyed by the owning declaration.
type ExtClause struct {
	// DeclType and DeclName identify the declaration the clause appeared
	// in.
	DeclType, DeclName string
	// Keyword is the extension clause's keyword.
	Keyword string
	// Names holds name-list semantics results.
	Names []string
	// Freq holds frequency-clause semantics results.
	Freq Freq
	// Raw preserves the unparsed items for raw semantics.
	Raw []parser.Item
	Pos token.Pos
}

// Spec is a complete NMSL specification: all declarations of all input
// files, indexed by kind and name.
type Spec struct {
	Types     map[string]*TypeSpec
	Processes map[string]*ProcessSpec
	Systems   map[string]*SystemSpec
	Domains   map[string]*DomainSpec
	// MIB is the name tree, pre-populated with the standard layout and
	// extended with objects introduced by type specifications.
	MIB *mib.Tree
	// Ext stores extension-captured clause data keyed by
	// "decltype declname" (e.g. "process snmpProxy").
	Ext map[string][]ExtClause
}

// NewSpec returns an empty Spec with a standard MIB.
func NewSpec() *Spec {
	return &Spec{
		Types:     map[string]*TypeSpec{},
		Processes: map[string]*ProcessSpec{},
		Systems:   map[string]*SystemSpec{},
		Domains:   map[string]*DomainSpec{},
		MIB:       mib.NewStandard(),
		Ext:       map[string][]ExtClause{},
	}
}

// ExtKey builds the Ext map key for a declaration.
func ExtKey(declType, declName string) string { return declType + " " + declName }

// TypeNames returns the declared type names, sorted.
func (s *Spec) TypeNames() []string { return sortedKeys(s.Types) }

// ProcessNames returns the declared process names, sorted.
func (s *Spec) ProcessNames() []string { return sortedKeys(s.Processes) }

// SystemNames returns the declared system names, sorted.
func (s *Spec) SystemNames() []string { return sortedKeys(s.Systems) }

// DomainNames returns the declared domain names, sorted.
func (s *Spec) DomainNames() []string { return sortedKeys(s.Domains) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

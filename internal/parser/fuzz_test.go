package parser

import (
	"strings"
	"testing"

	"nmsl/internal/paperspec"
)

// FuzzParse exercises the full front end on arbitrary input: the parser
// must never panic, and any File it returns must be re-renderable
// through Clause.String without panicking. Run with
//
//	go test -fuzz=FuzzParse ./internal/parser
//
// The seed corpus covers every declaration kind and the known tricky
// token sequences (trailer periods, dotted names, version literals).
func FuzzParse(f *testing.F) {
	for _, s := range FuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		SameAsMaterialized(t, "fuzz", src)
		file, _ := Parse("fuzz", src)
		if file == nil {
			return
		}
		for _, d := range file.Decls {
			for _, c := range d.Clauses {
				_ = c.String()
				_ = c.Keyword()
			}
		}
	})
}

// FuzzSeeds is FuzzParse's seed corpus; the parity test walks it too.
var FuzzSeeds = []string{
	paperspec.Figure42,
	paperspec.Figure44,
	paperspec.Figure46,
	paperspec.Figure48,
	"type t ::= SEQUENCE { a INTEGER }; access Any; end type t.",
	"domain d ::= end domain d.",
	"process p(A: Process) ::= queries A requests m frequency >= 5 minutes; end process p.",
	"system s ::= cpu x; interface i net n speed 10 bps; opsys o version 4.0.1; end system s.",
	"end end end .",
	"a b ::= ; . ::=",
	`x "unterminated`,
	"process p ::= exports a to \"d\" access ReadOnly frequency >= 5 minutes; end process p.",
	"-- just a comment",
	"type t ::= OCTET STRING; end type t.",
	"domain d ::= process p(*, *, 5, \"s\"); end domain d.",
	// where the streaming parser departs from the materialized one:
	// names with space or comments around their dots, trailers cut
	// short, lexical errors after syntax errors, ill-encoded strings
	"domain a . b ::= system x . y -- c\n . z; end domain a . b.",
	"domain a.b.c ::= end domain a.b.c.d.",
	"domain a.b ::= end domain a.",
	"type t ::= x @ ; end type u. \"open",
	"process p ::= exports \"a\xffb\" 99999999999999999999 4.0.1 1.5; end process p.",
	"process p(a.b, c: D; (x {y})) ::= k (a (b) {c;}) ( ; end process",
	// size-scaling: nesting past the parser's bound, for the fuzzer to
	// grow; small seeds never reached the depth that overflowed the stack
	"process p ::= supports " + strings.Repeat("(", 2*maxNesting) + "x" + strings.Repeat(")", 2*maxNesting) + "; end process p.",
}

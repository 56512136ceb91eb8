// Package token defines the lexical tokens of the NMSL specification
// language and the source positions used in diagnostics.
//
// The token set follows section 4.1.1 of the paper: tokens are separated by
// white space or special character sequences like "::=" or ";". NMSL
// keywords are alphabetic. Because the NMSL compiler parses a *generalized*
// grammar (Figure 6.1) in its first pass, keywords are not reserved at the
// lexical level: any alphabetic token is an IDENT, and keyword recognition
// is table-driven in the second (semantic) pass. The lexer therefore only
// distinguishes structural token classes.
package token

import "fmt"

// Kind classifies a lexical token.
type Kind uint8

// Token kinds. SPECIAL covers single-character punctuation that the
// generalized grammar treats uniformly ("special" in Figure 6.1).
const (
	// ILLEGAL marks a byte sequence that cannot begin any token.
	ILLEGAL Kind = iota
	// EOF marks the end of the input.
	EOF
	// IDENT is an alphanumeric word: keyword candidates, type names,
	// dotted MIB names are built from IDENT and PERIOD tokens.
	IDENT
	// STRING is a double-quoted string literal, e.g. "romano.cs.wisc.edu".
	STRING
	// INT is an unsigned integer literal.
	INT
	// FLOAT is a floating point literal.
	FLOAT
	// DEFINE is the definition separator "::=".
	DEFINE
	// SEMI is ";", the clause terminator.
	SEMI
	// PERIOD is ".", the declaration terminator and dotted-name separator.
	PERIOD
	// COMMA is ",", the list separator.
	COMMA
	// COLON is ":", used in parameter type annotations.
	COLON
	// LPAREN and RPAREN delimit parameter lists.
	LPAREN
	RPAREN
	// LBRACE and RBRACE delimit ASN.1 SEQUENCE bodies.
	LBRACE
	RBRACE
	// ASSIGN is ":=", used in query "using" clauses (Figure 4.4).
	ASSIGN
	// LT, LE, GT, GE are the frequency bound operators (Figure 4.3).
	LT
	LE
	GT
	GE
	// STAR is "*", the late-binding parameter placeholder (Figure 4.8).
	STAR
)

var kindNames = [...]string{
	ILLEGAL: "ILLEGAL",
	EOF:     "EOF",
	IDENT:   "IDENT",
	STRING:  "STRING",
	INT:     "INT",
	FLOAT:   "FLOAT",
	DEFINE:  "::=",
	SEMI:    ";",
	PERIOD:  ".",
	COMMA:   ",",
	COLON:   ":",
	LPAREN:  "(",
	RPAREN:  ")",
	LBRACE:  "{",
	RBRACE:  "}",
	ASSIGN:  ":=",
	LT:      "<",
	LE:      "<=",
	GT:      ">",
	GE:      ">=",
	STAR:    "*",
}

// String returns a printable name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos is a source position: byte offset, 1-based line and column.
// Every declaration, clause, item and diagnostic carries one, so its
// fields are 32 bits wide; parser.Parse refuses a source of 2 GiB or
// more, whose offsets would not fit.
type Pos struct {
	Offset int32
	Line   int32
	Column int32
}

// String formats the position as "line:column".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Column) }

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexical token with its source text and position.
type Token struct {
	// Text is the literal source text. For STRING tokens the surrounding
	// quotes are stripped.
	Text string
	Pos  Pos
	Kind Kind
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, STRING, INT, FLOAT, ILLEGAL:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}

// Is reports whether the token is an IDENT with the given (case-sensitive)
// text. NMSL keywords are lower-case alphabetic words; ASN.1 type keywords
// are upper-case. Keyword matching is exact per the paper's examples.
func (t Token) Is(word string) bool { return t.Kind == IDENT && t.Text == word }

// BasicKeywords lists the keywords of the basic NMSL language (sections
// 4.1.2-4.1.5). The set exists for documentation and for the semantic
// pass's table initialization; the lexer does not reserve these words,
// matching the paper's generalized first-pass grammar.
var BasicKeywords = []string{
	// declaration types
	"type", "process", "system", "domain", "end",
	// type specification clauses
	"access",
	// process specification clauses
	"supports", "exports", "to", "queries", "requests", "using",
	"frequency", "infrequent",
	// network element clauses
	"cpu", "interface", "net", "protocols", "speed", "bps",
	"opsys", "version",
	// time units
	"hours", "minutes", "seconds",
}

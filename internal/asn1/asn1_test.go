package asn1

import (
	"strings"
	"testing"

	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
)

// typeBody parses src as a full NMSL file and returns the first clause of
// decl i as ASN.1 items.
func typeBody(t *testing.T, src string, i int) []parser.Item {
	t.Helper()
	f, err := parser.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[i].Clauses[0].Items
}

func TestSequenceOf(t *testing.T) {
	items := typeBody(t, paperspec.Figure42, 0)
	typ, err := ParseItems(items)
	if err != nil {
		t.Fatal(err)
	}
	if typ.Kind != KindSequenceOf {
		t.Fatalf("kind %v", typ.Kind)
	}
	if typ.Elem.Kind != KindRef || typ.Elem.Name != "IpAddrEntry" {
		t.Fatalf("elem %+v", typ.Elem)
	}
	if got := typ.String(); got != "SEQUENCE OF IpAddrEntry" {
		t.Errorf("String() = %q", got)
	}
}

func TestFigure42Sequence(t *testing.T) {
	items := typeBody(t, paperspec.Figure42, 1)
	typ, err := ParseItems(items)
	if err != nil {
		t.Fatal(err)
	}
	if typ.Kind != KindSequence || len(typ.Fields) != 4 {
		t.Fatalf("type %v", typ)
	}
	wantFields := []struct{ name, typ string }{
		{"ipAdEntAddr", "IpAddress"},
		{"ipAdEntIfIndex", "INTEGER"},
		{"ipAdEntNetMask", "IpAddress"},
		{"ipAdEntBcastAddr", "INTEGER"},
	}
	for i, w := range wantFields {
		f := typ.Fields[i]
		if f.Name != w.name || f.Type.Name != w.typ || f.Type.Kind != KindPrimitive {
			t.Errorf("field %d: %s %s", i, f.Name, f.Type)
		}
	}
	if f := typ.FieldNamed("ipAdEntNetMask"); f == nil || f.Type.Name != "IpAddress" {
		t.Errorf("FieldNamed: %+v", f)
	}
	if f := typ.FieldNamed("nope"); f != nil {
		t.Errorf("FieldNamed(nope): %+v", f)
	}
}

func parseSrc(t *testing.T, body string) (*Type, error) {
	t.Helper()
	src := "type t ::= " + body + "; end type t."
	f, err := parser.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return ParseItems(f.Decls[0].Clauses[0].Items)
}

func TestPrimitives(t *testing.T) {
	for _, name := range []string{"INTEGER", "IpAddress", "Counter", "Gauge", "TimeTicks", "Opaque", "NULL", "DisplayString"} {
		typ, err := parseSrc(t, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if typ.Kind != KindPrimitive || typ.Name != name {
			t.Errorf("%s parsed as %+v", name, typ)
		}
	}
}

func TestTwoWordTypes(t *testing.T) {
	typ, err := parseSrc(t, "OCTET STRING")
	if err != nil {
		t.Fatal(err)
	}
	if typ.Kind != KindPrimitive || typ.Name != "OCTETSTRING" {
		t.Fatalf("%+v", typ)
	}
	typ, err = parseSrc(t, "OBJECT IDENTIFIER")
	if err != nil {
		t.Fatal(err)
	}
	if typ.Name != "OBJECTIDENTIFIER" {
		t.Fatalf("%+v", typ)
	}
}

func TestTwoWordTypeMissingSecond(t *testing.T) {
	_, err := parseSrc(t, "OCTET")
	if err == nil || !strings.Contains(err.Error(), "STRING") {
		t.Fatalf("err = %v", err)
	}
}

func TestNestedSequence(t *testing.T) {
	typ, err := parseSrc(t, "SEQUENCE { a SEQUENCE { b INTEGER, c Counter }, d IpAddress }")
	if err != nil {
		t.Fatal(err)
	}
	if len(typ.Fields) != 2 {
		t.Fatalf("%v", typ)
	}
	inner := typ.Fields[0].Type
	if inner.Kind != KindSequence || len(inner.Fields) != 2 {
		t.Fatalf("inner %v", inner)
	}
}

func TestSequenceOfSequenceOf(t *testing.T) {
	typ, err := parseSrc(t, "SEQUENCE of SEQUENCE of INTEGER")
	if err != nil {
		t.Fatal(err)
	}
	if typ.Kind != KindSequenceOf || typ.Elem.Kind != KindSequenceOf || typ.Elem.Elem.Name != "INTEGER" {
		t.Fatalf("%v", typ)
	}
}

func TestRefs(t *testing.T) {
	typ, err := parseSrc(t, "SEQUENCE { a Foo, b SEQUENCE of Bar, c INTEGER }")
	if err != nil {
		t.Fatal(err)
	}
	refs := typ.Refs(nil)
	if len(refs) != 2 || refs[0] != "Foo" || refs[1] != "Bar" {
		t.Fatalf("refs %v", refs)
	}
}

func TestEmptySequenceRejected(t *testing.T) {
	_, err := parseSrc(t, "SEQUENCE { }")
	if err == nil {
		t.Fatal("want error for empty sequence")
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	_, err := parseSrc(t, "INTEGER INTEGER")
	if err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyBodyRejected(t *testing.T) {
	_, err := ParseItems(nil)
	if err == nil {
		t.Fatal("want error")
	}
}

func TestUnknownNameIsRef(t *testing.T) {
	typ, err := parseSrc(t, "SomeLocalType")
	if err != nil {
		t.Fatal(err)
	}
	if typ.Kind != KindRef || typ.Name != "SomeLocalType" {
		t.Fatalf("%+v", typ)
	}
}

func TestStringRoundTripSequence(t *testing.T) {
	typ, err := parseSrc(t, "SEQUENCE { a INTEGER, b IpAddress }")
	if err != nil {
		t.Fatal(err)
	}
	want := "SEQUENCE { a INTEGER, b IpAddress }"
	if got := typ.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestDeepTypeBody: a type body nested a million deep is a parse error,
// and what the parser recovers of it is shallow enough to walk.
func TestDeepTypeBody(t *testing.T) {
	src := "type t ::= SEQUENCE " + strings.Repeat("{", 1_000_000) + " a INTEGER " + strings.Repeat("}", 1_000_000) + "; end type t."
	f, err := parser.Parse("deep", src)
	if err == nil || !strings.Contains(err.Error(), "nesting deeper than 1000") {
		t.Fatalf("parse error = %.200v, want the nesting diagnostic", err)
	}
	if _, err := ParseItems(f.Decls[0].Clauses[0].Items); err == nil {
		t.Error("a SEQUENCE of a thousand nested braces parsed as a type")
	}
}

package ast

import (
	"fmt"
	"math"
	"testing"

	"nmsl/internal/mib"
	"nmsl/internal/parser"
	"nmsl/internal/token"
)

func item(kind parser.ItemKind, text string) parser.Item {
	return parser.Item{Kind: kind, Text: text, Pos: token.Pos{Line: 1, Column: 1}}
}

func TestParseFreqForms(t *testing.T) {
	cases := []struct {
		items   []parser.Item
		op      string
		seconds float64
		infreq  bool
	}{
		{[]parser.Item{item(parser.Word, "infrequent")}, "", 0, true},
		{[]parser.Item{item(parser.Op, ">="), item(parser.Int, "5"), item(parser.Word, "minutes")}, ">=", 300, false},
		{[]parser.Item{item(parser.Op, ">"), item(parser.Int, "2"), item(parser.Word, "hours")}, ">", 7200, false},
		{[]parser.Item{item(parser.Op, "<="), item(parser.Int, "30"), item(parser.Word, "seconds")}, "<=", 30, false},
		{[]parser.Item{item(parser.Int, "10"), item(parser.Word, "seconds")}, "", 10, false},
		{[]parser.Item{{Kind: parser.Float, Text: "2.5"}, item(parser.Word, "minutes")}, "", 150, false},
	}
	for i, c := range cases {
		f, err := ParseFreq(c.items)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if f.Op != c.op || f.Seconds != c.seconds || f.Infrequent != c.infreq {
			t.Errorf("case %d: got %+v", i, f)
		}
	}
}

func TestParseFreqErrors(t *testing.T) {
	bad := [][]parser.Item{
		nil,
		{item(parser.Op, ">=")},
		{item(parser.Op, "!="), item(parser.Int, "5"), item(parser.Word, "seconds")},
		{item(parser.Op, ">="), item(parser.Int, "5")},
		{item(parser.Op, ">="), item(parser.Int, "5"), item(parser.Word, "weeks")},
		{item(parser.Op, ">="), item(parser.Word, "five"), item(parser.Word, "seconds")},
		{item(parser.Word, "infrequent"), item(parser.Int, "5")},
		{item(parser.Int, "5"), item(parser.Word, "seconds"), item(parser.Int, "9")},
		{{Kind: parser.Float, Text: "x.y"}, item(parser.Word, "seconds")},
	}
	for i, items := range bad {
		if _, err := ParseFreq(items); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFreqUnspecified(t *testing.T) {
	var f Freq
	if !f.Unspecified() {
		t.Error("zero Freq should be unspecified")
	}
	if (Freq{Infrequent: true}).Unspecified() {
		t.Error("infrequent is specified")
	}
	if (Freq{Seconds: 5}).Unspecified() {
		t.Error("period is specified")
	}
}

func TestArgString(t *testing.T) {
	cases := []struct {
		a    Arg
		want string
	}{
		{Arg{Kind: ArgStar}, "*"},
		{Arg{Kind: ArgString, Text: "host-a"}, `"host-a"`},
		{Arg{Kind: ArgWord, Text: "agent"}, "agent"},
		{Arg{Kind: ArgNumber, Text: "42", Num: 42}, "42"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("Arg %v: %q want %q", c.a.Kind, got, c.want)
		}
	}
}

func TestProcInstanceString(t *testing.T) {
	pi := ProcInstance{Name: "p"}
	if pi.String() != "p" {
		t.Errorf("bare: %q", pi.String())
	}
	pi.Args = []Arg{{Kind: ArgStar}, {Kind: ArgString, Text: "x"}}
	if pi.String() != `p(*, "x")` {
		t.Errorf("with args: %q", pi.String())
	}
}

func TestProcessSpecHelpers(t *testing.T) {
	ps := &ProcessSpec{
		Name:   "p",
		Params: []ProcParam{{Name: "A", Type: "Process"}, {Name: "B", Type: "IpAddress"}},
	}
	if ps.IsAgent() {
		t.Error("no supports -> not an agent")
	}
	ps.Supports = []string{"mgmt.mib"}
	if !ps.IsAgent() {
		t.Error("supports -> agent")
	}
	if p := ps.Param("B"); p == nil || p.Type != "IpAddress" {
		t.Errorf("Param(B) = %+v", p)
	}
	if ps.Param("C") != nil {
		t.Error("Param(C) should be nil")
	}
}

func TestNewSpecAndNames(t *testing.T) {
	s := NewSpec()
	if s.MIB == nil || s.MIB.Lookup("mgmt.mib") == nil {
		t.Fatal("spec MIB not standard")
	}
	s.Types["b"] = &TypeSpec{Name: "b"}
	s.Types["a"] = &TypeSpec{Name: "a"}
	s.Processes["p"] = &ProcessSpec{Name: "p"}
	s.Systems["s"] = &SystemSpec{Name: "s"}
	s.Domains["d"] = &DomainSpec{Name: "d"}
	if got := s.TypeNames(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("TypeNames %v", got)
	}
	if len(s.ProcessNames()) != 1 || len(s.SystemNames()) != 1 || len(s.DomainNames()) != 1 {
		t.Error("name listings wrong")
	}
}

func TestExtKey(t *testing.T) {
	if ExtKey("process", "p") != "process p" {
		t.Errorf("ExtKey = %q", ExtKey("process", "p"))
	}
}

func TestFreqStringUnits(t *testing.T) {
	cases := map[string]Freq{
		">= 5 minutes": {Op: ">=", Seconds: 300},
		"> 2 hours":    {Op: ">", Seconds: 7200},
		"90 seconds":   {Seconds: 90},
		"2 minutes":    {Seconds: 120},
		"unspecified":  {},
		"infrequent":   {Infrequent: true},
	}
	for want, f := range cases {
		if got := f.String(); got != want {
			t.Errorf("%+v -> %q want %q", f, got, want)
		}
	}
}

// fmtFreq is Freq.String as it was written with fmt, kept as the
// oracle for the appender that replaced it.
func fmtFreq(f Freq) string {
	if f.Infrequent {
		return "infrequent"
	}
	if f.Unspecified() {
		return "unspecified"
	}
	unit, val := "seconds", f.Seconds
	switch {
	case f.Seconds >= 3600 && f.Seconds == float64(int64(f.Seconds/3600))*3600:
		unit, val = "hours", f.Seconds/3600
	case f.Seconds >= 60 && f.Seconds == float64(int64(f.Seconds/60))*60:
		unit, val = "minutes", f.Seconds/60
	}
	op := f.Op
	if op != "" {
		op += " "
	}
	return fmt.Sprintf("%s%g %s", op, val, unit)
}

// FuzzFreqText holds Freq.AppendTo (and with it Freq.String) to the fmt
// rendering it replaced, for any period, bound operator and unit: a
// value is scaled by the unit's seconds, so whole hours and minutes
// take the other two unit branches.
func FuzzFreqText(f *testing.F) {
	for _, v := range []float64{5, 1.5, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, 1e21, 123456789, 0.1} {
		for u := range 3 {
			f.Add(">=", v, uint8(u), false)
		}
	}
	f.Add("", 90.0, uint8(0), false)
	f.Add(">", 2.0, uint8(2), true)
	f.Add("<=", -7.0, uint8(1), false)
	f.Fuzz(func(t *testing.T, op string, v float64, unit uint8, infrequent bool) {
		fr := Freq{Op: op, Seconds: v * [...]float64{1, 60, 3600}[unit%3], Infrequent: infrequent}
		want := fmtFreq(fr)
		if got := string(fr.AppendTo([]byte("prefix:"))); got != "prefix:"+want {
			t.Fatalf("%+v: AppendTo gives %q, fmt gives %q", fr, got, "prefix:"+want)
		}
		if got := fr.String(); got != want {
			t.Fatalf("%+v: String gives %q, fmt gives %q", fr, got, want)
		}
	})
}

func TestAccessReExports(t *testing.T) {
	// the ast package re-uses mib.Access; check the spec-level default
	// export semantics stay observable
	ex := Export{Access: mib.AccessReadOnly}
	if !ex.Access.Allows(mib.AccessReadOnly) || ex.Access.Allows(mib.AccessWriteOnly) {
		t.Error("access semantics broken")
	}
}

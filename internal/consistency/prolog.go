package consistency

import (
	"fmt"
	"io"
	"strconv"

	"nmsl/internal/ast"
	"nmsl/internal/logic"
	"nmsl/internal/sema"
)

// This file implements the compiler side of the descriptive aspect: the
// output-specific actions tagged "consistency" (paper section 6.2,
// "requesting consistency output causes the actions tagged consistency to
// be executed, and Prolog rules to be generated"). The emitted statements
// are the per-declaration base facts; the Consistency Checker "adds some
// overall consistency requirements" — the rules WriteRules produces —
// before handing everything to the logic interpreter.

// OutputTag is the compiler output tag for consistency facts.
const OutputTag = "consistency"

func freqFact(f ast.Freq) (logic.Term, logic.Term) {
	if f.Infrequent {
		return logic.Atom("infrequent"), logic.Atom("ge")
	}
	op := logic.Atom("ge")
	if f.Op == ">" {
		op = logic.Atom("gt")
	}
	return logic.Float(f.MinPeriodSeconds()), op
}

func emitFact(e *sema.Emitter, functor string, args ...logic.Term) {
	e.Println(logic.Comp(functor, args...).String() + ".")
}

// RegisterOutput registers the "consistency" output actions for the basic
// declaration types into the compiler tables.
func RegisterOutput(t *sema.Tables) {
	t.AppendDecl(&sema.DeclEntry{
		Type: "type",
		Outputs: map[string]sema.OutputAction{
			OutputTag: func(ctx *sema.DeclContext, e *sema.Emitter) error {
				ts := ctx.Spec.Types[ctx.Decl.Name]
				if ts == nil {
					return nil
				}
				emitFact(e, "type_spec", logic.Atom(ts.Name))
				emitFact(e, "type_access", logic.Atom(ts.Name), accessAtom(ts.Access))
				for _, ref := range ts.Body.Refs(nil) {
					emitFact(e, "type_ref", logic.Atom(ts.Name), logic.Atom(ref))
				}
				return nil
			},
		},
	})
	t.AppendDecl(&sema.DeclEntry{
		Type: "process",
		Outputs: map[string]sema.OutputAction{
			OutputTag: func(ctx *sema.DeclContext, e *sema.Emitter) error {
				ps := ctx.Spec.Processes[ctx.Decl.Name]
				if ps == nil {
					return nil
				}
				name := logic.Atom(ps.Name)
				emitFact(e, "process_spec", name, logic.Int(int64(len(ps.Params))))
				for _, v := range ps.Supports {
					emitFact(e, "proc_supports", name, logic.Atom(v))
				}
				for _, ex := range ps.Exports {
					pt, op := freqFact(ex.Freq)
					for _, v := range ex.Vars {
						emitFact(e, "proc_export", name, logic.Atom(ex.To), logic.Atom(v), accessAtom(ex.Access), pt, op)
					}
				}
				for _, q := range ps.Queries {
					tfr, op := freqFact(q.Freq)
					for _, v := range q.Requests {
						emitFact(e, "proc_query", name, logic.Atom(q.Target), logic.Atom(v), accessAtom(q.Access), tfr, op)
					}
				}
				return nil
			},
		},
	})
	t.AppendDecl(&sema.DeclEntry{
		Type: "system",
		Outputs: map[string]sema.OutputAction{
			OutputTag: func(ctx *sema.DeclContext, e *sema.Emitter) error {
				ss := ctx.Spec.Systems[ctx.Decl.Name]
				if ss == nil {
					return nil
				}
				name := logic.Atom(ss.Name)
				emitFact(e, "system_spec", name, logic.Atom(ss.CPU))
				for _, ifc := range ss.Interfaces {
					emitFact(e, "sys_interface", name, logic.Atom(ifc.Name), logic.Atom(ifc.Net),
						logic.Atom(ifc.Type), logic.Int(ifc.SpeedBPS))
				}
				for _, v := range ss.Supports {
					emitFact(e, "sys_supports", name, logic.Atom(v))
				}
				for i, pi := range ss.Processes {
					emitFact(e, "sys_runs", name, logic.Atom(pi.Name), logic.Int(int64(i)))
				}
				return nil
			},
		},
	})
	t.AppendDecl(&sema.DeclEntry{
		Type: "domain",
		Outputs: map[string]sema.OutputAction{
			OutputTag: func(ctx *sema.DeclContext, e *sema.Emitter) error {
				ds := ctx.Spec.Domains[ctx.Decl.Name]
				if ds == nil {
					return nil
				}
				name := logic.Atom(ds.Name)
				emitFact(e, "domain_spec", name)
				for _, sys := range ds.Systems {
					emitFact(e, "dom_member_system", name, logic.Atom(sys))
				}
				for _, sub := range ds.Subdomains {
					emitFact(e, "dom_member_domain", name, logic.Atom(sub))
				}
				for i, pi := range ds.Processes {
					emitFact(e, "dom_instance", name, logic.Atom(pi.Name), logic.Int(int64(i)))
				}
				for _, ex := range ds.Exports {
					pt, op := freqFact(ex.Freq)
					for _, v := range ex.Vars {
						emitFact(e, "dom_export", name, logic.Atom(ex.To), logic.Atom(v), accessAtom(ex.Access), pt, op)
					}
				}
				return nil
			},
		},
	})
}

// WriteRules writes the "overall consistency requirements" the checker
// adds to the compiler's fact output: the derived relations of Figure 4.9
// and the transitivity/distribution/reduction rules, in executable
// Prolog/CLP(R) notation. Together with the compiler's consistency output
// this is a complete, human-readable rendering of what the checker
// evaluates.
func WriteRules(w io.Writer) error {
	_, err := io.WriteString(w, consistencyRules)
	return err
}

// consistencyRules is the rule text. The in-process checker evaluates the
// same relations through internal/logic (see BuildDB); this rendering
// exists so the compiler's output is complete and auditable, as in the
// paper's CLP(R) workflow.
const consistencyRules = `% --- NMSL consistency requirements (paper section 4.2, Figure 4.9) ---
% containment closure (transitivity rule)
contains_tr(X, Y) :- contains(X, Y).
contains_tr(X, Z) :- contains(X, Y), contains_tr(Y, Z).
covers(X, X).
covers(X, Y) :- contains_tr(X, Y).

% data containment over the MIB tree
data_covers(V, V).
data_covers(X, Y) :- mib_contains(X, Z), data_covers(Z, Y).

% access lattice
allows(any, _).
allows(readonly, readonly).  allows(readonly, none).
allows(writeonly, writeonly). allows(writeonly, none).
allows(none, none).

% frequency implication: a reference guaranteeing period >=(>) T
% satisfies a permission requiring period >=(>) PT
freq_ok(infrequent, _, _, _).
freq_ok(T, gt, PT, _)  :- T >= PT.
freq_ok(T, ge, PT, ge) :- T >= PT.
freq_ok(T, ge, PT, gt) :- T > PT.

% reduction rule: every reference must have a corresponding permission
permitted(Src, Tgt, Var, Acc, T, ROp) :-
    perm(G, Gr, PVar, PAcc, PT, POp),
    covers(Gr, Tgt), covers(G, Src),
    data_covers(PVar, Var), allows(PAcc, Acc),
    freq_ok(T, ROp, PT, POp).

% domain restriction: a domain containing the target but not the source
% that declares exports must itself grant a covering export
violates_restriction(Src, Tgt, Var, Acc, T, ROp) :-
    restricts(D), contains_tr(D, Tgt), \+ covers(D, Src),
    \+ ( dom_perm(D, G, PVar, PAcc, PT, POp),
         covers(G, Src), data_covers(PVar, Var),
         allows(PAcc, Acc), freq_ok(T, ROp, PT, POp) ).

% the proof performed is a proof of inconsistency (closed world)
inconsistent(Src, Tgt, Var, Acc, T, ROp) :-
    ref(Src, Tgt, Var, Acc, T, ROp),
    \+ permitted(Src, Tgt, Var, Acc, T, ROp).
inconsistent(Src, Tgt, Var, Acc, T, ROp) :-
    ref(Src, Tgt, Var, Acc, T, ROp),
    violates_restriction(Src, Tgt, Var, Acc, T, ROp).
`

// WriteFacts dumps the checker's derived fact base (the reduction of the
// specification to Figure 4.9 relations) as Prolog text. Unlike the
// compiler's per-declaration output this includes instance expansion.
func WriteFacts(w io.Writer, m *Model) error {
	write := func(functor string, args ...logic.Term) error {
		_, err := fmt.Fprintln(w, logic.Comp(functor, args...).String()+".")
		return err
	}
	for _, in := range m.Instances {
		host := in.System
		if host == "" {
			host = in.Domain
		}
		if err := write("instan", logic.Atom(host), logic.Atom(in.Proc.Name), logic.Atom(in.ID)); err != nil {
			return err
		}
		if err := write("contains", logic.Atom(host), logic.Atom(in.ID)); err != nil {
			return err
		}
	}
	for _, name := range m.co.domName {
		d := m.Spec.Domains[name]
		for _, sub := range d.Subdomains {
			if err := write("contains", logic.Atom(name), logic.Atom(sub)); err != nil {
				return err
			}
		}
		for _, sys := range d.Systems {
			if err := write("contains", logic.Atom(name), logic.Atom(sys)); err != nil {
				return err
			}
		}
	}
	for i := range m.Perms {
		p := &m.Perms[i]
		grantor := p.GrantorInst
		if grantor == "" {
			grantor = p.GrantorDomain
		}
		op := logic.Atom("ge")
		if p.Strict {
			op = logic.Atom("gt")
		}
		if err := write("perm", logic.Atom(p.Grantee), logic.Atom(grantor),
			logic.Atom(p.Var.Path()), accessAtom(p.Access),
			logic.Float(p.MinPeriod), op); err != nil {
			return err
		}
	}
	for i := range m.Refs {
		r := &m.Refs[i]
		tfr, op := freqTerms(r.guarantee())
		if err := write("ref", logic.Atom(r.Source.ID), logic.Atom(r.Target.ID),
			logic.Atom(r.Var.Path()), accessAtom(r.Access), tfr, op); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%% %s derived facts\n", strconv.Itoa(len(m.Refs)+len(m.Perms)))
	return err
}

package consistency

import (
	"nmsl/internal/ast"
	"nmsl/internal/logic"
	"nmsl/internal/sema"
)

// This file implements the compiler side of the descriptive aspect: the
// output-specific actions tagged "consistency" (paper section 6.2,
// "requesting consistency output causes the actions tagged consistency to
// be executed, and Prolog rules to be generated"). The emitted statements
// are the per-declaration base facts; the Consistency Checker "adds some
// overall consistency requirements" — the rules of BuildDBRecursive —
// before handing everything to the logic interpreter.

// OutputTag is the compiler output tag for consistency facts.
const OutputTag = "consistency"

func freqFact(f ast.Freq) (logic.Term, logic.Term) {
	return freqTerms(f.MinPeriodSeconds(), f.Op == ">", f.Infrequent)
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

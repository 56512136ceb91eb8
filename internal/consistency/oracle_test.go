package consistency

import (
	"fmt"
	"slices"
)

// Oracles for the per-reference check: the violation messages, the
// reference text and the candidate-permission list as they were
// produced before the check rendered its text by appending and walked
// the grantor indexes in place. The rendering and the walk are held to
// these in render_test.go.

// fmtRef is Ref.String written with fmt.
func fmtRef(r *Ref) string {
	return fmt.Sprintf("ref(%s -> %s, %s, %s, frequency %s)",
		r.Source.ID, r.Target.ID, r.Var.Path(), r.Access, r.Freq)
}

// candidateWalk lists the permissions in the order checkRef and the
// fingerprint encoder visit them: the target's own grants, then each
// containing domain's, in place.
func candidateWalk(m *Model, ti int32) []int32 {
	co := &m.co
	out := slices.Clone(co.permsByInst[ti])
	for _, d := range co.instDoms(ti) {
		out = append(out, co.permsByDom[d]...)
	}
	return out
}

// sortedCandidates is the candidate list the check walked before: the
// same permissions, copied and sorted.
func sortedCandidates(m *Model, ti int32) []int32 {
	out := candidateWalk(m, ti)
	slices.Sort(out)
	return out
}

// fmtCheckRef is checkRef with its messages written by fmt over the
// sorted candidate list.
func fmtCheckRef(m *Model, ref *Ref) []Violation {
	c := NewChecker(m)
	co := c.co
	var out []Violation
	si, ti := ref.Source.idx, ref.Target.idx
	if !co.supports(ti, ref.Var) {
		out = append(out, Violation{
			Kind: KindNoSupport,
			Ref:  ref,
			Message: fmt.Sprintf("%s: target %s (%s) does not support %s",
				fmtRef(ref), ref.Target.ID, ref.Target.Hosted(), ref.Var.Path()),
		})
	}
	t, strict, infreq := ref.guarantee()
	best := 0
	var bestPerm *Perm
	for _, pi := range sortedCandidates(m, ti) {
		level := c.permLevel(pi, si, ref, t, strict, infreq)
		if level > best {
			best = level
			bestPerm = &c.m.Perms[pi]
		}
		if best == 3 {
			break
		}
	}
	switch best {
	case 3:
	case 2:
		out = append(out, Violation{
			Kind: KindFrequencyViolation, Ref: ref, NearMiss: bestPerm,
			Message: fmt.Sprintf("%s: permitted at most every %gs by %s, but the reference only guarantees %s",
				fmtRef(ref), bestPerm.MinPeriod, bestPerm.DeclaredBy, ref.Freq),
		})
	case 1:
		out = append(out, Violation{
			Kind: KindAccessViolation, Ref: ref, NearMiss: bestPerm,
			Message: fmt.Sprintf("%s: %s grants only %s access",
				fmtRef(ref), bestPerm.DeclaredBy, bestPerm.Access),
		})
	default:
		out = append(out, Violation{
			Kind: KindNoPermission, Ref: ref,
			Message: fmt.Sprintf("%s: no permission covers this reference", fmtRef(ref)),
		})
	}
	for _, d := range co.instDoms(ti) {
		if !co.restricts(d) || co.instHasDom(si, d) {
			continue
		}
		ok := false
		var near *Perm
		for _, pi := range co.permsByDom[d] {
			level := c.permLevel(pi, si, ref, t, strict, infreq)
			if level == 3 {
				ok = true
				break
			}
			if level > 0 {
				near = &c.m.Perms[pi]
			}
		}
		if !ok {
			out = append(out, Violation{
				Kind: KindDomainRestriction, Ref: ref, NearMiss: near,
				Message: fmt.Sprintf("%s: domain %s restricts access to its members and grants no covering export",
					fmtRef(ref), co.domName[d]),
			})
		}
	}
	return out
}

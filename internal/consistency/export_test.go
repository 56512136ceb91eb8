package consistency

// Test-only exports for the consistency_test package, whose tests need
// netsim (which imports this package) alongside the internals.
var (
	// SerialLogicCheck solves a logic program one reference at a time
	// on one solver, the serial check the logic engine is held to.
	SerialLogicCheck = serialLogicCheck
	// ContainedBy returns every X with pred(X, party) provable.
	ContainedBy = containedBy
	// ModelParties lists the model's domains, systems and instances.
	ModelParties = modelParties
	// FmtRef and FmtCheckRef are the fmt renderings the check's
	// appended text is held to (oracle_test.go).
	FmtRef      = fmtRef
	FmtCheckRef = fmtCheckRef
	// UnresolvedViolation renders an unresolved target as the check's
	// tail reports it.
	UnresolvedViolation = unresolvedViolation
)

// CheckRef runs the indexed per-reference check on a fresh scratch.
func CheckRef(m *Model, ref *Ref) []Violation {
	var out []Violation
	NewChecker(m).checkRef(ref, &out, &scratch{})
	return out
}

// CandidateWalk and SortedCandidates list the candidate permissions of
// instance i in walk order and sorted (oracle_test.go).
func CandidateWalk(m *Model, i int) []int32    { return candidateWalk(m, int32(i)) }
func SortedCandidates(m *Model, i int) []int32 { return sortedCandidates(m, int32(i)) }

// RebuildRefs empties the model's reference table and builds it again.
func RebuildRefs(m *Model) {
	m.Refs, m.Unresolved = nil, nil
	m.buildRefs()
}

// ResolveAllTargets resolves every query's targets, the part of
// buildRefs that precedes the table.
func ResolveAllTargets(m *Model) {
	for _, in := range m.Instances {
		for qi := range in.Proc.Queries {
			m.resolveTargets(in, &in.Proc.Queries[qi])
		}
	}
}

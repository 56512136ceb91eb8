package consistency

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nmsl/internal/obs"
)

// Kind classifies a consistency violation.
type Kind string

// Violation kinds. The checker reports "the immediate causes for
// inconsistency" (section 4.2), so each failed reference is classified by
// the nearest-miss condition.
const (
	// KindNoPermission: no permission's grantee/grantor/data covers the
	// reference at all.
	KindNoPermission Kind = "no-permission"
	// KindAccessViolation: a permission covers the parties and data but
	// its access mode does not allow the reference's mode.
	KindAccessViolation Kind = "access-violation"
	// KindFrequencyViolation: a permission covers parties, data and
	// access, but the reference may query more often than permitted.
	KindFrequencyViolation Kind = "frequency-violation"
	// KindDomainRestriction: a domain containing the target (but not the
	// source) declares exports and none of them covers the reference.
	KindDomainRestriction Kind = "domain-restriction"
	// KindNoSupport: the target instance does not support the referenced
	// data (process view or hosting element's view).
	KindNoSupport Kind = "no-support"
	// KindUnresolvedTarget: a query target resolved to no instance.
	KindUnresolvedTarget Kind = "unresolved-target"
)

// Violation is one immediate cause of inconsistency.
type Violation struct {
	Kind Kind
	// Ref is the failing reference (nil for unresolved targets).
	Ref *Ref
	// Unresolved is set for KindUnresolvedTarget.
	Unresolved *UnresolvedTarget
	// NearMiss is the closest permission considered, when one exists.
	NearMiss *Perm
	// Message is the human-readable cause.
	Message string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s", v.Kind, v.Message)
}

// Error makes Violation usable as an error value (and with errors.As),
// so callers can surface individual causes through error-handling paths.
func (v Violation) Error() string { return v.String() }

// Report is the checker's result.
type Report struct {
	Model *Model
	// Violations holds every immediate cause found, in a deterministic,
	// documented order — the sort key is (reference order, rule order):
	// references in model order (system-hosted instances in system
	// declaration order, then domain-hosted instances in domain order,
	// queries and requested variables in declaration order), each
	// reference's causes in rule order (support, permission, domain
	// restriction); then proxy violations in declaration order; then
	// unresolved targets in discovery order. Serial and parallel checks
	// produce identical ordering.
	Violations []Violation
	// RefsChecked counts the references examined. Equal to the model's
	// reference count except when the check was cancelled or stopped by
	// FailFast.
	RefsChecked int
	// Metrics is this run's observability snapshot — shard timings,
	// worker occupancy, refs and violation counts (the MetricCheck*
	// names in shard.go). Set by CheckContext; nil from Checker.Check
	// and CheckDelta and when Options.Metrics is obs.Disabled.
	Metrics obs.Snapshot
}

// Consistent reports whether the specification passed.
func (r *Report) Consistent() bool { return len(r.Violations) == 0 }

// String renders the report the way the paper describes: either a clean
// bill or the list of immediate causes.
func (r *Report) String() string {
	var b strings.Builder
	if r.Consistent() {
		fmt.Fprintf(&b, "consistent: %d references, %d permissions, %d instances\n",
			r.RefsChecked, len(r.Model.Perms), len(r.Model.Instances))
		return b.String()
	}
	fmt.Fprintf(&b, "INCONSISTENT: %d violations (%d references checked)\n",
		len(r.Violations), r.RefsChecked)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

// Summary returns a one-line digest of the report: the verdict, plus
// violation counts broken down by kind for inconsistent specifications.
func (r *Report) Summary() string {
	if r.Consistent() {
		return fmt.Sprintf("consistent: %d references, %d permissions, %d instances",
			r.RefsChecked, len(r.Model.Perms), len(r.Model.Instances))
	}
	counts := map[Kind]int{}
	kinds := make([]string, 0, 4)
	for _, v := range r.Violations {
		if counts[v.Kind] == 0 {
			kinds = append(kinds, string(v.Kind))
		}
		counts[v.Kind]++
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%d %s", counts[Kind(k)], k))
	}
	return fmt.Sprintf("INCONSISTENT: %d violations (%s), %d references checked",
		len(r.Violations), strings.Join(parts, ", "), r.RefsChecked)
}

// ByKind returns the violations of one kind.
func (r *Report) ByKind(k Kind) []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Kind == k {
			out = append(out, v)
		}
	}
	return out
}

// Checker evaluates consistency over a Model through its columnar
// tables (columns.go): dense instance/domain/permission ids instead of
// string-keyed maps, so the per-reference hot path is map-free,
// lock-free and allocation-free. The tables are built once per Model
// and shared, which also makes NewChecker itself cheap — callers may
// construct a Checker per run without rebuilding any index.
type Checker struct {
	m  *Model
	co *columns
	// Cache, when non-nil, memoizes per-reference verdicts keyed by a
	// dependency fingerprint (cache.go). Concurrent-safe.
	Cache *ResultCache
	// deltaBits is CheckDelta's reusable dirty-instance bitset, sized to
	// the model on first use. Only the serial CheckDelta entry point
	// touches it — concurrent CheckDelta calls on one Checker were never
	// supported (each allocates its own Checker via NewChecker cheaply).
	deltaBits []uint64
}

// scratch is the per-worker arena: the violation-message buffer, the
// fingerprint encoding buffer, the cache-key buffer, and the batched
// cache counters. Every buffer is bump-reused across the worker's
// references — after the first few references size the slabs, the
// steady-state per-reference path allocates nothing at any worker
// count (pinned by TestCheckSteadyStateZeroAlloc). It carries no
// pointers into the model, and one scratch is owned by exactly one
// worker (or the serial loop) at a time.
type scratch struct {
	msg   []byte
	enc   []byte
	key   []byte
	cache cacheBatch
}

// flush folds the scratch's batched counters into the attached result
// cache. Called once per worker, not per reference, so workers never
// contend on the shared counters mid-check.
func (c *Checker) flush(sc *scratch) {
	if c.Cache != nil {
		c.Cache.merge(&sc.cache)
	}
}

// NewChecker builds a Checker for the model. BuildModel has already
// written the columnar tables it checks over, so construction (one
// Checker per CheckContext run, per delta re-check, per service
// request) costs nothing.
func NewChecker(m *Model) *Checker {
	return &Checker{m: m, co: &m.co}
}

// permLevel checks permission pi against the reference, whose guarantee
// (t, strict, infreq) the caller hoisted. It returns how far the
// permission got: 0 = wrong parties/data, 1 = parties+data ok but
// access denied, 2 = access ok but frequency fails, 3 = full cover.
func (c *Checker) permLevel(pi int32, srcIdx int32, ref *Ref, t float64, strict, infreq bool) int {
	// grantee must contain the source party
	if !c.co.instHasDom(srcIdx, c.co.permGrantee[pi]) {
		return 0
	}
	p := &c.m.Perms[pi]
	// data subtree
	if !p.Var.Contains(ref.Var) {
		return 0
	}
	if !p.Access.Allows(ref.Access) {
		return 1
	}
	if !freqImplies(t, strict, infreq, p.MinPeriod, p.Strict) {
		return 2
	}
	return 3
}

// bestPerm probes the permissions pis against the reference, starting
// from the best level and permission found so far, and returns the best
// level reached and the first permission reaching it; it stops at a
// full cover (3). Probing in ascending index order keeps the reported
// near miss the lowest-numbered one.
func (c *Checker) bestPerm(pis []int32, si int32, ref *Ref, t float64, strict, infreq bool, best int, bestPerm *Perm) (int, *Perm) {
	for _, pi := range pis {
		if level := c.permLevel(pi, si, ref, t, strict, infreq); level > best {
			best, bestPerm = level, &c.m.Perms[pi]
			if best == 3 {
				break
			}
		}
	}
	return best, bestPerm
}

// violation appends a violation of the given kind whose message is the
// reference's text followed by the rendered cause in sc.msg: the message
// is the one string the violation allocates.
func (sc *scratch) violation(out *[]Violation, kind Kind, ref *Ref, near *Perm) {
	*out = append(*out, Violation{Kind: kind, Ref: ref, NearMiss: near, Message: string(sc.msg)})
}

// checkRef evaluates one reference and appends violations. Messages are
// rendered into the scratch's buffer only once a violation is certain.
func (c *Checker) checkRef(ref *Ref, out *[]Violation, sc *scratch) {
	co := c.co
	si, ti := ref.Source.idx, ref.Target.idx
	// Rule 3: support.
	if !co.supports(ti, ref.Var) {
		b := append(ref.appendText(sc.msg[:0]), ": target "...)
		b = append(b, ref.Target.ID...)
		b = append(b, " ("...)
		b = append(b, ref.Target.Hosted()...)
		b = append(b, ") does not support "...)
		sc.msg = append(b, ref.Var.Path()...)
		sc.violation(out, KindNoSupport, ref, nil)
	}
	// Rule 1: permission. The guarantee is constant across every
	// permission probe for the reference, so hoist it. The candidates are
	// the target's own grants, then each containing domain's, walked in
	// place: buildPerms numbers them so that this is ascending order.
	t, strict, infreq := ref.guarantee()
	best, bestPerm := c.bestPerm(co.permsByInst[ti], si, ref, t, strict, infreq, 0, nil)
	for _, d := range co.instDoms(ti) {
		if best == 3 {
			break
		}
		best, bestPerm = c.bestPerm(co.permsByDom[d], si, ref, t, strict, infreq, best, bestPerm)
	}
	switch best {
	case 3:
		// permitted
	case 2:
		b := append(ref.appendText(sc.msg[:0]), ": permitted at most every "...)
		b = strconv.AppendFloat(b, bestPerm.MinPeriod, 'g', -1, 64) // fmt's %g
		b = append(b, "s by "...)
		b = append(b, bestPerm.DeclaredBy...)
		b = append(b, ", but the reference only guarantees "...)
		sc.msg = ref.Freq.AppendTo(b)
		sc.violation(out, KindFrequencyViolation, ref, bestPerm)
	case 1:
		b := append(ref.appendText(sc.msg[:0]), ": "...)
		b = append(b, bestPerm.DeclaredBy...)
		b = append(b, " grants only "...)
		b = append(b, bestPerm.Access.String()...)
		sc.msg = append(b, " access"...)
		sc.violation(out, KindAccessViolation, ref, bestPerm)
	default:
		sc.msg = append(ref.appendText(sc.msg[:0]), ": no permission covers this reference"...)
		sc.violation(out, KindNoPermission, ref, nil)
	}
	// Rule 2: domain restrictions. Domain ids ascend in sorted-name
	// order, so multiple restriction violations on one reference emit
	// deterministically (the map iteration this replaces did not
	// guarantee that).
	for _, d := range co.instDoms(ti) {
		if !co.restricts(d) || co.instHasDom(si, d) {
			continue // restricts nothing, or the source is inside it
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
			b := append(ref.appendText(sc.msg[:0]), ": domain "...)
			b = append(b, co.domName[d]...)
			sc.msg = append(b, " restricts access to its members and grants no covering export"...)
			sc.violation(out, KindDomainRestriction, ref, near)
		}
	}
}

// unresolvedViolation renders one unresolved query target as a
// violation for the check loop's tail.
func unresolvedViolation(u *UnresolvedTarget) Violation {
	return Violation{
		Kind:       KindUnresolvedTarget,
		Unresolved: u,
		Message: fmt.Sprintf("%s query of %q cannot be resolved: %s",
			u.Source.ID, u.Query.Target, u.Reason),
	}
}

// Check runs the full consistency check: the one check loop as a pool
// of one, metrics off, over this checker's Cache.
func (c *Checker) Check() *Report {
	var sc scratch
	rep := c.serial(func(ref *Ref, out *[]Violation) { c.checkRefWith(ref, out, &sc) })
	c.flush(&sc)
	return rep
}

// serial runs step through the one shard loop in order on the caller's
// goroutine, with metrics off. It does not go through obs.Pool: a
// closure a pool worker may call escapes to the heap, and with it the
// run, the step and the step's state, which would cost every warm delta
// six allocations (BenchmarkCheckWarmCache). Its callers return no
// error, so a panic in step is raised again here rather than returned
// as a partial Report.
func (c *Checker) serial(step refChecker) *Report {
	var buf [shardsPerWorker][2]int // the shards stay on the stack
	r := run{m: c.m, chk: c}
	rep := &Report{Model: c.m}
	ctx := context.Background()
	err := obs.Guard("consistency check", func() {
		var w worker
		for _, sh := range shardRefs(buf[:0], c.m.Refs, shardsPerWorker) {
			rep.RefsChecked += r.shard(ctx, step, sh[0], sh[1], &rep.Violations, &w)
		}
	})
	if err == nil {
		err = r.tail(ctx, rep)
	}
	if err != nil {
		panic(err)
	}
	return rep
}

// Check is the convenience entry point: run the indexed checker
// serially. It is equivalent to CheckContext with a background context,
// one worker and metrics off.
func Check(m *Model) *Report { return NewChecker(m).Check() }

package consistency_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
)

// sixKindsSpec yields a violation of every Kind: the poller asks its
// agent too often, for writes, for data nobody exports and for data the
// host does not support; the agent's domain restricts access from
// outside; and a late-bound query finds no agent at all.
const sixKindsSpec = `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib.system to "public"
        access ReadOnly
        frequency >= 5 minutes;
end process agent.

process poller(Any: Process) ::=
    queries agent requests mgmt.mib.system frequency >= 1 minutes;
    queries agent requests mgmt.mib.system access WriteOnly frequency >= 5 minutes;
    queries agent requests mgmt.mib.ip frequency infrequent;
    queries agent requests mgmt.mib.egp frequency > 2 hours;
    queries Any requests mgmt.mib.at frequency >= 90 seconds;
end process poller.

system "inside" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib.system, mgmt.mib.ip;
    process agent;
end system "inside".

system "outside" ::=
    cpu sparc;
    interface ie0 net wan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process poller(*);
end system "outside".

domain lab ::=
    system inside;
    exports mgmt.mib.system to "others" access ReadOnly;
end domain lab.

domain elsewhere ::=
    system outside;
end domain elsewhere.

domain others ::=
end domain others.

domain public ::=
    domain lab;
    domain elsewhere;
end domain public.
`

// renderModels is programModels plus every netsim scenario at a small
// size and sixKindsSpec.
func renderModels(t *testing.T) map[string]*consistency.Model {
	t.Helper()
	models := programModels(t)
	for _, name := range netsim.Scenarios() {
		p, err := netsim.ScenarioParams(netsim.Scenario(name), 40, 6)
		if err != nil {
			t.Fatal(err)
		}
		if models["scenario-"+name], err = netsim.Model(p); err != nil {
			t.Fatal(err)
		}
	}
	models["six-kinds"] = consistency.BuildModel(compile(t, "", sixKindsSpec))
	return models
}

// TestViolationMessagesMatchFmt holds the check's appended text to the
// fmt formats it replaced: every reference's String, every violation
// checkRef reports (kind, near miss and message) and every unresolved
// target's message, over the corpus, the netsim internets and a
// specification that yields each of the six kinds.
func TestViolationMessagesMatchFmt(t *testing.T) {
	for name, m := range renderModels(t) {
		kinds := map[consistency.Kind]bool{}
		for i := range m.Refs {
			ref := &m.Refs[i]
			if got, want := ref.String(), consistency.FmtRef(ref); got != want {
				t.Fatalf("%s: Ref.String = %q, fmt gives %q", name, got, want)
			}
			got, want := consistency.CheckRef(m, ref), consistency.FmtCheckRef(m, ref)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s\nchecks to %+v\nfmt oracle %+v", name, ref, got, want)
			}
			for _, v := range got {
				kinds[v.Kind] = true
			}
		}
		for i := range m.Unresolved {
			u := &m.Unresolved[i]
			want := fmt.Sprintf("%s query of %q cannot be resolved: %s", u.Source.ID, u.Query.Target, u.Reason)
			if got := consistency.UnresolvedViolation(u).Message; got != want {
				t.Fatalf("%s: unresolved message %q, fmt gives %q", name, got, want)
			}
			kinds[consistency.KindUnresolvedTarget] = true
		}
		if name == "six-kinds" && len(kinds) != 6 {
			t.Fatalf("six-kinds yields only %v", kinds)
		}
	}
}

// TestCandidateWalkAscending pins the permission numbering the check's
// in-place candidate walk relies on: for every instance, the target's
// own grants followed by each containing domain's are exactly the
// sorted candidate list the walk replaced.
func TestCandidateWalkAscending(t *testing.T) {
	for name, m := range renderModels(t) {
		for i, in := range m.Instances {
			if got, want := consistency.CandidateWalk(m, i), consistency.SortedCandidates(m, i); !slices.Equal(got, want) {
				t.Fatalf("%s: %s: walk %v, sorted %v", name, in.ID, got, want)
			}
		}
	}
}

// TestBuildRefsAllocs: beyond resolving targets, buildRefs allocates a
// fixed number of times (the query list and the reference table, each
// at its exact length) whatever the reference count; a table grown by
// appending reallocates as it fills. The collector is off while it
// counts, so that its own allocations do not show; one run of each
// keeps the memory that holds down.
func TestBuildRefsAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var extra []float64
	for _, domains := range []int{100, 500} {
		m, err := netsim.Model(netsim.Params{Domains: domains, SystemsPerDomain: 2, NestingDepth: 1, StarTargets: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		refs := len(m.Refs)
		runtime.GC()
		build := testing.AllocsPerRun(1, func() { consistency.RebuildRefs(m) })
		resolve := testing.AllocsPerRun(1, func() { consistency.ResolveAllTargets(m) })
		if len(m.Refs) != refs || cap(m.Refs) != refs {
			t.Fatalf("%d domains: rebuilt %d refs (cap %d), want %d", domains, len(m.Refs), cap(m.Refs), refs)
		}
		t.Logf("%d domains, %d refs: buildRefs %v allocs, resolving %v", domains, refs, build, resolve)
		extra = append(extra, build-resolve)
	}
	if extra[0] != extra[1] || extra[1] > 2 {
		t.Fatalf("buildRefs allocates %v beyond target resolution at 100 and 500 domains, want the same ≤ 2", extra)
	}
}

// TestRefSize pins the reference row: half a million of them are the
// bulk of a late-bound internet's live heap.
func TestRefSize(t *testing.T) {
	if size := unsafe.Sizeof(consistency.Ref{}); size > 56 {
		t.Fatalf("Ref is %d bytes, want at most 56", size)
	}
}

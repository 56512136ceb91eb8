package consistency

import (
	"path/filepath"
	"strings"
	"testing"
)

// twoClusterSpec holds two independent clusters (east and west), each
// with its own agent, poller and domain. Mutating one cluster's
// declarations must invalidate that cluster's reference fingerprints and
// leave the other's untouched.
const twoClusterSpec = `
process agentE ::=
    supports mgmt.mib;
    exports mgmt.mib to "east"
        access ReadOnly
        frequency >= 5 minutes;
end process agentE.

process pollerE ::=
    queries agentE
        requests mgmt.mib.system
        frequency >= 10 minutes;
end process pollerE.

system "host-e" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agentE;
    process pollerE;
end system "host-e".

domain east ::=
    system host-e;
end domain east.

process agentW ::=
    supports mgmt.mib;
    exports mgmt.mib to "west"
        access ReadOnly
        frequency >= 5 minutes;
end process agentW.

process pollerW ::=
    queries agentW
        requests mgmt.mib.system
        frequency >= 10 minutes;
end process pollerW.

system "host-w" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agentW;
    process pollerW;
end system "host-w".

domain west ::=
    system host-w;
end domain west.

domain public ::=
    domain east;
    domain west;
end domain public.
`

// fingerprints computes every reference's fingerprint, keyed by Ref.Key.
func fingerprints(m *Model) map[string][32]byte {
	c := NewChecker(m)
	var sc scratch
	out := map[string][32]byte{}
	for i := range m.Refs {
		r := &m.Refs[i]
		out[r.Key()] = c.fingerprint(r, &sc)
	}
	return out
}

// eastWestKeys splits the model's reference keys by cluster.
func eastWestKeys(m *Model) (east, west []string) {
	for i := range m.Refs {
		r := &m.Refs[i]
		if strings.Contains(r.Source.ID, "host-e") {
			east = append(east, r.Key())
		} else {
			west = append(west, r.Key())
		}
	}
	return
}

// TestFingerprintInvalidation mutates each model dimension the verdict
// depends on and asserts the fingerprint changes for exactly the
// affected cluster's references — no stale verdicts, no
// over-invalidation.
func TestFingerprintInvalidation(t *testing.T) {
	base := buildModel(t, twoClusterSpec)
	baseFP := fingerprints(base)
	east, west := eastWestKeys(base)
	if len(east) != 1 || len(west) != 1 {
		t.Fatalf("fixture refs: east %d, west %d", len(east), len(west))
	}

	cases := []struct {
		name string
		edit func(string) string
		// dirtyEast reports whether the east reference's fingerprint must
		// change; the west reference's must never change.
		dirtyEast bool
	}{
		{
			name: "perm access mode",
			edit: func(s string) string {
				return strings.Replace(s, "exports mgmt.mib to \"east\"\n        access ReadOnly",
					"exports mgmt.mib to \"east\"\n        access Any", 1)
			},
			dirtyEast: true,
		},
		{
			name: "perm frequency guarantee",
			edit: func(s string) string {
				return strings.Replace(s, "access ReadOnly\n        frequency >= 5 minutes;\nend process agentE",
					"access ReadOnly\n        frequency >= 30 minutes;\nend process agentE", 1)
			},
			dirtyEast: true,
		},
		{
			name: "domain membership",
			edit: func(s string) string {
				return strings.Replace(s, "domain east ::=\n    system host-e;",
					"domain east ::=", 1)
			},
			dirtyEast: true,
		},
		{
			name: "support view narrowed",
			edit: func(s string) string {
				return strings.Replace(s, "process agentE ::=\n    supports mgmt.mib;",
					"process agentE ::=\n    supports mgmt.mib.ip;", 1)
			},
			dirtyEast: true,
		},
		{
			name: "empty subdomain added",
			edit: func(s string) string {
				return s + "\ndomain spare ::=\nend domain spare.\n" +
					"\ndomain public2 ::=\n    domain spare;\nend domain public2.\n"
			},
			dirtyEast: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.edit(twoClusterSpec)
			if src == twoClusterSpec {
				t.Fatal("edit did not apply")
			}
			m2 := buildModel(t, src)
			fp2 := fingerprints(m2)
			eastChanged := fp2[east[0]] != baseFP[east[0]]
			if eastChanged != tc.dirtyEast {
				t.Errorf("east fingerprint changed = %v, want %v", eastChanged, tc.dirtyEast)
			}
			if fp2[west[0]] != baseFP[west[0]] {
				t.Error("west fingerprint changed (over-invalidation)")
			}
			// The cached re-check must match a fresh check verbatim.
			cache := NewResultCache()
			c1 := NewChecker(base)
			c1.Cache = cache
			c1.Check()
			c2 := NewChecker(m2)
			c2.Cache = cache
			got := c2.Check()
			want := Check(m2)
			if got.String() != want.String() {
				t.Errorf("cached re-check diverges:\n got: %s\nwant: %s", got, want)
			}
			st := cache.Stats()
			wantInval := int64(0)
			if tc.dirtyEast {
				wantInval = 1
			}
			if st.Invalidations != wantInval {
				t.Errorf("invalidations = %d, want %d (stats %+v)", st.Invalidations, wantInval, st)
			}
			if wantHits := int64(len(base.Refs)) - wantInval; st.Hits != wantHits {
				t.Errorf("hits = %d, want %d (stats %+v)", st.Hits, wantHits, st)
			}
		})
	}
}

// TestCacheUnusedTypeNoInvalidation: a new type declaration extends the
// MIB elsewhere; every existing path is untouched, so a warm cache stays
// fully valid even though the delta layer conservatively forces a full
// re-check.
func TestCacheUnusedTypeNoInvalidation(t *testing.T) {
	src2 := twoClusterSpec + `
type SpareCounter ::=
    INTEGER;
    access ReadOnly;
end type SpareCounter.
`
	base := buildModel(t, twoClusterSpec)
	m2 := buildModel(t, src2)
	cache := NewResultCache()
	c1 := NewChecker(base)
	c1.Cache = cache
	c1.Check()
	c2 := NewChecker(m2)
	c2.Cache = cache
	if got, want := c2.Check().String(), Check(m2).String(); got != want {
		t.Fatalf("cached check diverges:\n got: %s\nwant: %s", got, want)
	}
	if st := cache.Stats(); st.Invalidations != 0 || st.Hits != int64(len(base.Refs)) {
		t.Errorf("stats %+v, want all hits and no invalidations", st)
	}
}

// TestCacheVerdictReplay: cached violations replay with identical kinds
// and messages.
func TestCacheVerdictReplay(t *testing.T) {
	m := buildModel(t, freqSpec)
	cache := NewResultCache()
	c1 := NewChecker(m)
	c1.Cache = cache
	first := c1.Check()
	if first.Consistent() {
		t.Fatal("fixture should be inconsistent")
	}
	c2 := NewChecker(m)
	c2.Cache = cache
	second := c2.Check()
	if first.String() != second.String() {
		t.Fatalf("replayed report diverges:\n got: %s\nwant: %s", second, first)
	}
	if st := cache.Stats(); st.Hits != int64(len(m.Refs)) {
		t.Errorf("stats %+v, want %d hits", st, len(m.Refs))
	}
}

// TestCacheSaveLoadRoundTrip persists a warm cache and reloads it.
func TestCacheSaveLoadRoundTrip(t *testing.T) {
	m := buildModel(t, freqSpec)
	cache := NewResultCache()
	c := NewChecker(m)
	c.Cache = cache
	want := c.Check().String()

	path := filepath.Join(t.TempDir(), "cache.json")
	if err := cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded := NewResultCache()
	if err := loaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != cache.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), cache.Len())
	}
	c2 := NewChecker(m)
	c2.Cache = loaded
	if got := c2.Check().String(); got != want {
		t.Fatalf("warm-start report diverges:\n got: %s\nwant: %s", got, want)
	}
	if st := loaded.Stats(); st.Hits != int64(len(m.Refs)) {
		t.Errorf("stats %+v, want all hits", st)
	}
	if err := loaded.LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file should error")
	}
}

// TestCheckRefScratchNoAllocs: steady-state candidate lookups reuse the
// scratch buffer — zero allocations per reference on a consistent model.
func TestCheckRefScratchNoAllocs(t *testing.T) {
	m := buildModel(t, twoClusterSpec)
	c := NewChecker(m)
	var sc scratch
	var out []Violation
	ref := &m.Refs[0]
	allocs := testing.AllocsPerRun(100, func() {
		out = out[:0]
		c.checkRef(ref, &out, &sc)
	})
	if len(out) != 0 {
		t.Fatalf("fixture reference should be consistent: %v", out)
	}
	if allocs != 0 {
		t.Errorf("checkRef allocates %v per run, want 0", allocs)
	}
}

package consistency

import (
	"os"
	"path/filepath"
	"testing"
)

// cacheFixture is a ResultCache.SaveFile of a warm check of
// testdata/campus-broken.nmsl (every violation kind, nested domains),
// written by an earlier build of the checker and committed unchanged.
const cacheFixture = "testdata/campus-broken.cache.json"

// TestCacheFixtureStillHits pins the fingerprint bytes across builds: a
// cache persisted before a change to the model's tables (nmsld keeps
// one per tenant in its state directory) must still answer every
// reference of the same specification, and the replayed report must be
// the cold check's.
func TestCacheFixtureStillHits(t *testing.T) {
	src, err := os.ReadFile("../../testdata/campus-broken.nmsl")
	if err != nil {
		t.Fatal(err)
	}
	m := buildModel(t, string(src))
	cache := NewResultCache()
	if err := cache.LoadFile(cacheFixture); err != nil {
		t.Fatal(err)
	}
	chk := NewChecker(m)
	chk.Cache = cache
	got := chk.Check()
	if st := cache.Stats(); st.Hits != int64(len(m.Refs)) || st.Misses != 0 || st.Invalidations != 0 {
		t.Errorf("persisted cache answered %+v of %d references, want every one a hit", st, len(m.Refs))
	}
	if want := Check(m).String(); got.String() != want {
		t.Errorf("replayed report differs from a cold check:\ngot:  %swant: %s", got, want)
	}
}

// FuzzResultCacheLoad: LoadFile never panics on arbitrary bytes, and a
// file it accepts survives SaveFile → LoadFile with the same entry count.
func FuzzResultCacheLoad(f *testing.F) {
	if data, err := os.ReadFile(cacheFixture); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"entries":{}}`))
	f.Add([]byte(`{"version":1,"entries":{"k":{"fp":"00"}}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`not json`))
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rc := NewResultCache()
		if rc.LoadFile(in) != nil {
			return
		}
		if err := rc.SaveFile(out); err != nil {
			t.Fatalf("saving a loaded cache: %v", err)
		}
		again := NewResultCache()
		if err := again.LoadFile(out); err != nil {
			t.Fatalf("reloading a saved cache: %v", err)
		}
		if again.Len() != rc.Len() {
			t.Fatalf("round trip changed the entry count: %d -> %d", rc.Len(), again.Len())
		}
	})
}

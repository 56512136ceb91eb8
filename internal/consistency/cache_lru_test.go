package consistency

import (
	"fmt"
	"path/filepath"
	"testing"
)

// fpOf builds a distinct fingerprint per index for direct cache tests.
func fpOf(i int) (fp [32]byte) {
	fp[0], fp[1] = byte(i), byte(i>>8)
	return
}

// hit probes the cache the way the checker does, through
// lookupBatchedBytes, and reports whether the key/fingerprint hit.
func hit(rc *ResultCache, key string, fp [32]byte) bool {
	_, ok := rc.lookupBatchedBytes([]byte(key), fp, &cacheBatch{})
	return ok
}

// TestLRUCapEvictsOldest fills a capped cache past its hysteresis
// threshold and asserts the least-recently-used entries go first.
func TestLRUCapEvictsOldest(t *testing.T) {
	rc := NewResultCache()
	rc.SetMaxEntries(8)
	for i := 0; i < 8; i++ {
		rc.store(fmt.Sprintf("k%02d", i), fpOf(i), nil)
	}
	// Touch the first four so the untouched k04..k07 become the LRU end.
	for i := 0; i < 4; i++ {
		if !hit(rc, fmt.Sprintf("k%02d", i), fpOf(i)) {
			t.Fatalf("k%02d should hit", i)
		}
	}
	// Two more stores stay within the 25%% hysteresis (10 <= 8+2)...
	rc.store("k08", fpOf(8), nil)
	rc.store("k09", fpOf(9), nil)
	if rc.Len() != 10 {
		t.Fatalf("hysteresis should defer the trim: len=%d", rc.Len())
	}
	// ...and the next one crosses it, trimming back to the cap.
	rc.store("k10", fpOf(10), nil)
	if rc.Len() != 8 {
		t.Fatalf("store past hysteresis should trim to cap: len=%d", rc.Len())
	}
	// The recently-touched entries survived; the untouched ones did not.
	for i := 0; i < 4; i++ {
		if !hit(rc, fmt.Sprintf("k%02d", i), fpOf(i)) {
			t.Errorf("recently-used k%02d was evicted", i)
		}
	}
	for i := 4; i < 7; i++ {
		if hit(rc, fmt.Sprintf("k%02d", i), fpOf(i)) {
			t.Errorf("LRU k%02d should have been evicted", i)
		}
	}
	if st := rc.Stats(); st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.Evictions)
	}
}

// TestSetMaxEntriesTrimsImmediately caps an already-overfull cache.
func TestSetMaxEntriesTrimsImmediately(t *testing.T) {
	rc := NewResultCache()
	for i := 0; i < 20; i++ {
		rc.store(fmt.Sprintf("k%02d", i), fpOf(i), nil)
	}
	rc.SetMaxEntries(5)
	if rc.Len() != 5 {
		t.Fatalf("len=%d after capping at 5", rc.Len())
	}
	// The five most recent stores are the survivors.
	for i := 15; i < 20; i++ {
		if !hit(rc, fmt.Sprintf("k%02d", i), fpOf(i)) {
			t.Errorf("most-recent k%02d was evicted", i)
		}
	}
}

// TestSaveFileEnforcesCap proves the persisted file never exceeds the
// cap and that a capped load trims an oversized file.
func TestSaveFileEnforcesCap(t *testing.T) {
	rc := NewResultCache()
	for i := 0; i < 12; i++ {
		rc.store(fmt.Sprintf("k%02d", i), fpOf(i), []cachedViolation{{Kind: KindFrequencyViolation, Message: "x"}})
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	// Uncapped save keeps everything.
	if err := rc.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	big := NewResultCache()
	if err := big.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if big.Len() != 12 {
		t.Fatalf("uncapped round trip lost entries: len=%d", big.Len())
	}
	// Capped save trims first.
	rc.SetMaxEntries(4)
	if err := rc.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	small := NewResultCache()
	if err := small.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if small.Len() != 4 {
		t.Fatalf("capped save persisted %d entries, want 4", small.Len())
	}
	// A capped cache loading an oversized file trims on load.
	capped := NewResultCache()
	capped.SetMaxEntries(3)
	big2 := NewResultCache()
	for i := 0; i < 9; i++ {
		big2.store(fmt.Sprintf("b%02d", i), fpOf(i), nil)
	}
	if err := big2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := capped.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if capped.Len() != 3 {
		t.Fatalf("capped load kept %d entries, want 3", capped.Len())
	}
}

// TestUncappedCacheNeverEvicts pins the default: no cap, no eviction.
func TestUncappedCacheNeverEvicts(t *testing.T) {
	rc := NewResultCache()
	for i := 0; i < 1000; i++ {
		rc.store(fmt.Sprintf("k%04d", i), fpOf(i), nil)
	}
	if rc.Len() != 1000 || rc.Trim() != 0 {
		t.Fatalf("uncapped cache evicted: len=%d", rc.Len())
	}
	if st := rc.Stats(); st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", st.Evictions)
	}
}

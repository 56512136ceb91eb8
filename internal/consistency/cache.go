package consistency

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// cacheStripes is the stripe count of the ResultCache map. Keys spread
// across stripes by hash, so concurrent workers contend on a stripe's
// lock with probability ~1/64 instead of always (the single-mutex map
// this replaces serialized every worker of the sharded checker).
const cacheStripes = 64

// cacheStripe is one lock-plus-map shard of the cache, padded out so
// two stripes' locks never share a cache line.
type cacheStripe struct {
	mu      sync.RWMutex
	entries map[string]*cacheEntry
	_       [32]byte
}

// ResultCache memoizes per-reference verdicts across checker runs, keyed
// by Ref.Key and guarded by the dependency fingerprint (fingerprint.go):
// a hit replays the cached violations only when the fingerprint of
// everything the verdict depends on is unchanged. Safe for concurrent use
// by the sharded checker's workers: the entry map is striped, the
// counters are atomics, and the checker batches its hit/miss counts
// per worker (cacheBatch) so the hot path touches no shared line per
// lookup beyond the recency clock. Caches survive process restarts
// through SaveFile/LoadFile (the nmslcheck -cache flag).
type ResultCache struct {
	stripes [cacheStripes]cacheStripe
	// count tracks the total entries across stripes (Len without taking
	// 64 locks).
	count atomic.Int64
	// maxEntries caps the cache size; 0 means unbounded. When set, the
	// least-recently-used entries beyond the cap are evicted — eagerly
	// (with hysteresis) as entries are stored, and always before the
	// cache is persisted, so a long-lived daemon's cache file cannot
	// grow without bound.
	maxEntries atomic.Int64
	// confMu serializes whole-cache operations: trims, cap changes, and
	// bulk load. Per-key lookups and stores never take it.
	confMu sync.Mutex

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
	// tick is the recency clock: every hit or store stamps the entry,
	// and eviction drops the lowest stamps first.
	tick atomic.Int64
}

// cacheBatch accumulates a worker's hit/miss/invalidation counts
// locally; Checker.flush folds it into the cache's shared counters once
// per worker instead of once per reference.
type cacheBatch struct {
	hits, misses, invalidations int64
}

// merge folds a worker's batched counters in and resets the batch.
func (rc *ResultCache) merge(b *cacheBatch) {
	if b.hits != 0 {
		rc.hits.Add(b.hits)
		b.hits = 0
	}
	if b.misses != 0 {
		rc.misses.Add(b.misses)
		b.misses = 0
	}
	if b.invalidations != 0 {
		rc.invalidations.Add(b.invalidations)
		b.invalidations = 0
	}
}

// cachedViolation is the persisted slice of a Violation: the kind and
// rendered message. Ref/NearMiss pointers are rebound on replay (the
// in-memory path) or dropped (the persisted path only feeds warm starts,
// where a fingerprint match guarantees the re-rendered message would be
// identical).
type cachedViolation struct {
	Kind    Kind   `json:"kind"`
	Message string `json:"message"`
}

type cacheEntry struct {
	fp [32]byte
	vs []cachedViolation
	// used is the entry's last-touched recency stamp (see ResultCache.tick).
	used atomic.Int64
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	rc := &ResultCache{}
	for i := range rc.stripes {
		rc.stripes[i].entries = map[string]*cacheEntry{}
	}
	return rc
}

// lookupBatchedBytes returns the cached violations for a key still in
// its scratch byte buffer when the fingerprint matches, stamping the
// recency clock on a hit and counting the outcome in the worker-local
// batch (folded in by Checker.flush). The map probe goes through the
// compiler's zero-copy string(key) lookup form, so a warm hit
// materializes no key string — this is what keeps the steady-state
// cached check allocation-free per reference (checkRefCached builds the
// key with Ref.appendKey and only the cold store path pays for a real
// string).
func (rc *ResultCache) lookupBatchedBytes(key []byte, fp [32]byte, b *cacheBatch) ([]cachedViolation, bool) {
	s := &rc.stripes[stripeIndex(key)]
	s.mu.RLock()
	ent := s.entries[string(key)]
	s.mu.RUnlock()
	if ent == nil {
		b.misses++
		return nil, false
	}
	if ent.fp != fp {
		b.invalidations++
		return nil, false
	}
	ent.used.Store(rc.tick.Add(1))
	b.hits++
	return ent.vs, true
}

// store records the verdict for the key under the fingerprint. When a
// max-entries cap is set and the cache has outgrown it by 25%, the
// least-recently-used overflow across all stripes is trimmed (the
// hysteresis amortizes the O(n log n) sort across many stores).
func (rc *ResultCache) store(key string, fp [32]byte, vs []cachedViolation) {
	ent := &cacheEntry{fp: fp, vs: vs}
	ent.used.Store(rc.tick.Add(1))
	s := &rc.stripes[stripeIndex(key)]
	s.mu.Lock()
	_, existed := s.entries[key]
	s.entries[key] = ent
	s.mu.Unlock()
	if !existed {
		n := rc.count.Add(1)
		if max := rc.maxEntries.Load(); max > 0 && n > max+max/4 {
			rc.confMu.Lock()
			rc.trimTo(int(max))
			rc.confMu.Unlock()
		}
	}
}

// SetMaxEntries caps the cache at n entries (0 restores unbounded
// growth) and immediately trims any existing overflow, LRU first.
func (rc *ResultCache) SetMaxEntries(n int) {
	if n < 0 {
		n = 0
	}
	rc.maxEntries.Store(int64(n))
	if n > 0 {
		rc.confMu.Lock()
		rc.trimTo(n)
		rc.confMu.Unlock()
	}
}

// Trim evicts the least-recently-used entries beyond the configured
// cap and returns how many were dropped (always 0 when no cap is set).
func (rc *ResultCache) Trim() int {
	max := rc.maxEntries.Load()
	if max <= 0 {
		return 0
	}
	rc.confMu.Lock()
	defer rc.confMu.Unlock()
	return rc.trimTo(int(max))
}

// trimTo drops all but the keep most-recently-used entries across every
// stripe. Caller holds confMu; stripe locks are taken briefly per
// stripe. An entry touched between the snapshot and the delete (its
// recency stamp moved) is spared — it is recent by definition.
func (rc *ResultCache) trimTo(keep int) int {
	type aged struct {
		stripe int
		key    string
		used   int64
	}
	all := make([]aged, 0, rc.count.Load())
	for i := range rc.stripes {
		s := &rc.stripes[i]
		s.mu.RLock()
		for k, ent := range s.entries {
			all = append(all, aged{i, k, ent.used.Load()})
		}
		s.mu.RUnlock()
	}
	over := len(all) - keep
	if over <= 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].used < all[j].used })
	dropped := 0
	for _, a := range all[:over] {
		s := &rc.stripes[a.stripe]
		s.mu.Lock()
		if ent := s.entries[a.key]; ent != nil && ent.used.Load() == a.used {
			delete(s.entries, a.key)
			dropped++
		}
		s.mu.Unlock()
	}
	rc.count.Add(int64(-dropped))
	rc.evictions.Add(int64(dropped))
	return dropped
}

// Len returns the number of cached verdicts.
func (rc *ResultCache) Len() int { return int(rc.count.Load()) }

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits, Misses, Invalidations int64
	// Evictions counts entries dropped by the LRU cap.
	Evictions int64
	Entries   int
}

// Stats snapshots the counters.
func (rc *ResultCache) Stats() CacheStats {
	return CacheStats{
		Hits:          rc.hits.Load(),
		Misses:        rc.misses.Load(),
		Invalidations: rc.invalidations.Load(),
		Evictions:     rc.evictions.Load(),
		Entries:       rc.Len(),
	}
}

// cacheFile is the persisted JSON form.
type cacheFile struct {
	Version int                       `json:"version"`
	Entries map[string]cacheFileEntry `json:"entries"`
}

type cacheFileEntry struct {
	FP         string            `json:"fp"`
	Violations []cachedViolation `json:"violations,omitempty"`
}

// SaveFile persists the cache as JSON. A configured max-entries cap is
// enforced first (LRU trim), so the file on disk never exceeds it.
func (rc *ResultCache) SaveFile(path string) error {
	rc.Trim()
	out := cacheFile{Version: 1, Entries: make(map[string]cacheFileEntry, rc.Len())}
	for i := range rc.stripes {
		s := &rc.stripes[i]
		s.mu.RLock()
		for k, ent := range s.entries {
			out.Entries[k] = cacheFileEntry{
				FP:         hex.EncodeToString(ent.fp[:]),
				Violations: ent.vs,
			}
		}
		s.mu.RUnlock()
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadFile reads a cache persisted by SaveFile, replacing the current
// entries. A malformed file or unknown version is an error; the cache is
// left unchanged in that case (callers degrade to a cold start).
func (rc *ResultCache) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var in cacheFile
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("cache %s: %w", path, err)
	}
	if in.Version != 1 {
		return fmt.Errorf("cache %s: unsupported version %d", path, in.Version)
	}
	fresh := make([]map[string]*cacheEntry, cacheStripes)
	for i := range fresh {
		fresh[i] = map[string]*cacheEntry{}
	}
	for k, fe := range in.Entries {
		fp, err := hex.DecodeString(fe.FP)
		if err != nil || len(fp) != 32 {
			return fmt.Errorf("cache %s: bad fingerprint for %q", path, k)
		}
		ent := &cacheEntry{vs: fe.Violations}
		copy(ent.fp[:], fp)
		ent.used.Store(rc.tick.Add(1))
		fresh[stripeIndex(k)][k] = ent
	}
	rc.confMu.Lock()
	total := 0
	for i := range rc.stripes {
		s := &rc.stripes[i]
		s.mu.Lock()
		s.entries = fresh[i]
		total += len(fresh[i])
		s.mu.Unlock()
	}
	rc.count.Store(int64(total))
	if max := rc.maxEntries.Load(); max > 0 {
		rc.trimTo(int(max))
	}
	rc.confMu.Unlock()
	return nil
}

// stripeIndex hashes a key (FNV-1a) onto a stripe index. It takes the
// key as a string or as the byte buffer it is built in, so the store
// and lookup paths always agree on the stripe.
func stripeIndex[K string | []byte](key K) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % cacheStripes)
}

// checkRefWith dispatches one reference through the cache when one is
// attached, and plain checkRef otherwise.
func (c *Checker) checkRefWith(ref *Ref, out *[]Violation, sc *scratch) {
	if c.Cache == nil {
		c.checkRef(ref, out, sc)
		return
	}
	c.checkRefCached(ref, out, sc)
}

// checkRefCached consults the result cache before evaluating. Replayed
// violations carry the cached message with the Ref pointer rebound to
// this model's reference; NearMiss is not recoverable from a persisted
// entry and is left nil on replay (the rendered message already embeds
// the near-miss description). Counter updates batch into the scratch
// and reach the cache at the owner's flush. The key is built into the
// scratch's reusable buffer and only becomes a string on the cold store
// path, so a warm hit allocates nothing.
func (c *Checker) checkRefCached(ref *Ref, out *[]Violation, sc *scratch) {
	sc.key = ref.appendKey(sc.key[:0])
	fp := c.fingerprint(ref, sc)
	if vs, ok := c.Cache.lookupBatchedBytes(sc.key, fp, &sc.cache); ok {
		for _, v := range vs {
			*out = append(*out, Violation{Kind: v.Kind, Ref: ref, Message: v.Message})
		}
		return
	}
	before := len(*out)
	c.checkRef(ref, out, sc)
	fresh := (*out)[before:]
	var vs []cachedViolation
	if len(fresh) > 0 {
		vs = make([]cachedViolation, len(fresh))
		for i, v := range fresh {
			vs[i] = cachedViolation{Kind: v.Kind, Message: v.Message}
		}
	}
	c.Cache.store(string(sc.key), fp, vs)
}

// Cache metric names, recorded into the run registry by CheckContext and
// CheckDelta when a cache is attached.
const (
	MetricCheckCacheHits          = "nmsl_check_cache_hits_total"
	MetricCheckCacheMisses        = "nmsl_check_cache_misses_total"
	MetricCheckCacheInvalidations = "nmsl_check_cache_invalidations_total"
	MetricCheckDeltaDirty         = "nmsl_check_delta_dirty_total"
	MetricCheckDeltaReplayed      = "nmsl_check_delta_replayed_total"
)

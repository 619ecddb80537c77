package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/obs"
	"tqec/internal/store"
)

// pipelineVersion is hashed into every cache key. Bump it with any change
// that can alter a compile's result for the same circuit, options and
// seeds (a placer or router change, a determinism fix), so a warm result
// store never serves an older pipeline's answer as done_cached.
//
//	2: dual nets are routed in a fixed order (was Go map order)
//	3: each pin is joined to its net's tree by one multi-source A* with
//	   an exact heuristic (was a search from the pin toward a sample of
//	   the tree)
const pipelineVersion = 3

// CacheKey content-addresses one compile: the SHA-256 of the pipeline
// version, the normalized circuit text, a canonical encoding of every
// Options field that can change the result, and the seed set. Two
// submissions with the same key
// are guaranteed to produce byte-identical result payloads (the pipeline
// is deterministic for a fixed seed list), so the second can be answered
// from the cache without running anything.
//
// Normalization: the circuit is serialized in the canonical plain-text
// gate-list form (one gate per line, controls then target), which erases
// source-format differences (.real vs text vs generated benchmark) and
// whitespace/comment noise. The circuit name is deliberately excluded —
// renaming a workload must not defeat the cache; the payload's Name field
// comes from the submission, not the cache.
func CacheKey(c *circuit.Circuit, opt compress.Options, seeds []int64) (string, error) {
	var sb strings.Builder
	// Name-independent normalization: serialize a renamed shallow copy.
	norm := *c
	norm.Name = ""
	if err := circuit.WriteText(&sb, &norm); err != nil {
		return "", fmt.Errorf("service: normalize circuit: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(sb.String()))
	// Options.Seed is overridden per seed by CompileBest; everything else
	// that steers the pipeline goes into the key. KeepGeometry is excluded:
	// it only materializes a visualization artifact the service never
	// returns. "restarts=0" stands for a primal-restart option that no
	// longer exists, so keys stay those the stored results were filed under.
	fmt.Fprintf(h, "|pipeline=%d|mode=%d|effort=%d|ms=%t|skip=%t|nocomp=%t|restarts=0|drc=%t|seeds=",
		pipelineVersion, opt.Mode, opt.Effort, opt.MeasurementSideIShape, opt.SkipRouting,
		opt.NoCompaction, opt.DRC)
	for _, s := range seeds {
		fmt.Fprintf(h, "%d,", s)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// resultCache is the in-memory LRU over finished result payloads, keyed
// by CacheKey and bounded by entry count (a store.ByteLRU without a byte
// bound). When a durable result store is attached the cache reads
// through to it (a warm restart serves done_cached from disk) and writes
// through on every insert.
type resultCache struct {
	max    int // <= 0 disables the cache entirely
	disk   *store.Results
	logger *slog.Logger

	mu       sync.Mutex
	lru      *store.ByteLRU
	payloads map[string]*ResultPayload

	hits, misses, evictions *obs.Counter
}

func newResultCache(max int, disk *store.Results, logger *slog.Logger, m *metrics) *resultCache {
	if max <= 0 {
		// Caching disabled: the disk store is not consulted either, so
		// -cache -1 keeps today's compile-every-time semantics even with a
		// data dir attached.
		disk = nil
	}
	return &resultCache{
		max:       max,
		disk:      disk,
		logger:    logger,
		lru:       store.NewByteLRU(max, 0),
		payloads:  map[string]*ResultPayload{},
		hits:      m.cacheHits,
		misses:    m.cacheMisses,
		evictions: m.cacheEvictions,
	}
}

// Get returns the cached payload for key, promoting it to most recently
// used, and records the hit or miss. A memory miss falls through to the
// durable result store when one is attached; a disk hit is re-admitted
// to the memory tier so repeat lookups stay off the filesystem.
func (rc *resultCache) Get(key string) (*ResultPayload, bool) {
	rc.mu.Lock()
	if p, ok := rc.payloads[key]; ok {
		rc.lru.Touch(key)
		rc.mu.Unlock()
		rc.hits.Inc()
		return p, true
	}
	rc.mu.Unlock()
	if rc.disk != nil {
		if raw, ok := rc.disk.Get(key); ok {
			var p ResultPayload
			if err := json.Unmarshal(raw, &p); err == nil {
				rc.admit(key, &p, int64(len(raw)))
				rc.hits.Inc()
				return &p, true
			}
			rc.logger.Warn("result store entry undecodable", "key", key[:12])
		}
	}
	rc.misses.Inc()
	return nil, false
}

// Put inserts (or refreshes) a payload in the memory tier, evicting
// beyond the bound, and returns its encoding for Persist; nil when the
// cache is disabled or the payload does not encode.
func (rc *resultCache) Put(key string, p *ResultPayload) []byte {
	if rc.max <= 0 {
		return nil
	}
	raw, err := json.Marshal(p)
	if err != nil {
		rc.logger.Warn("result payload unmarshalable, not cached", "key", key[:12], "err", err)
		return nil
	}
	rc.admit(key, p, int64(len(raw)))
	return raw
}

// Persist writes a payload Put encoded through to the durable store; a
// nil encoding writes nothing. A disk write failure degrades durability,
// not availability: it is logged and the in-memory entry stands.
func (rc *resultCache) Persist(key string, raw []byte) {
	if rc.disk == nil || raw == nil {
		return
	}
	if err := rc.disk.Put(key, raw); err != nil {
		rc.logger.Warn("result store write failed", "key", key[:12], "err", err)
	}
}

// admit installs a payload in the memory tier, applying LRU evictions.
func (rc *resultCache) admit(key string, p *ResultPayload, size int64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.payloads[key] = p
	for _, ev := range rc.lru.Add(key, size) {
		delete(rc.payloads, ev.Key)
		rc.evictions.Inc()
	}
}

// Len returns the number of in-memory cached entries.
func (rc *resultCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lru.Len()
}

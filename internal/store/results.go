package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// resultEnvelope is the on-disk form of one cached result: the payload
// bytes wrapped with the key they were stored under and an IEEE CRC32
// of the payload. json.RawMessage round-trips the payload bytes exactly,
// so the CRC computed at write time verifies at read time.
type resultEnvelope struct {
	V       int             `json:"v"`
	Key     string          `json:"key"`
	CRC32   uint32          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// resultsIndex is results/index.json: last-access times (Unix
// nanoseconds) per key, persisted so the LRU eviction order survives
// restarts. It is advisory — a missing or stale index degrades GC
// ordering to file mtimes, never correctness.
type resultsIndex struct {
	Atime map[string]int64 `json:"atime"`
}

// ResultsStats is a point-in-time snapshot of the content-addressed
// result store, the source of the tqecd_store_* metric families.
type ResultsStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Writes      int64 `json:"writes"`
	GCEvictions int64 `json:"gc_evictions"`
	Corrupt     int64 `json:"corrupt"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
}

// Results is the content-addressed result store: one file per cache key
// under a sharded dir/ab/<key>.json layout (ab = the key's first two
// hex digits, keeping directories small at millions of entries), each
// written atomically via temp-file + rename and verified by CRC on
// read. A byte-bounded LRU — ordered by access time, persisted in an
// index file — garbage-collects the least recently used entries.
type Results struct {
	dir      string
	maxBytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	writes    atomic.Int64
	evictions atomic.Int64
	corrupt   atomic.Int64

	mu    sync.Mutex
	lru   *ByteLRU
	atime map[string]int64 // key → last access, Unix ns
}

// OpenResults scans dir (created if absent) and rebuilds the LRU from
// the index file's access times, falling back to file mtimes for keys
// the index missed. Temp files a crash left in dir or its shard dirs are
// removed. maxBytes bounds the on-disk footprint (<= 0 selects 1 GiB);
// entries beyond it are evicted oldest-access-first on Put.
func OpenResults(dir string, maxBytes int64) (*Results, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: results dir: %w", err)
	}
	r := &Results{
		dir:      dir,
		maxBytes: maxBytes,
		lru:      NewByteLRU(0, maxBytes),
		atime:    map[string]int64{},
	}
	if err := r.scan(); err != nil {
		return nil, err
	}
	return r, nil
}

// scan loads the index and walks the shard directories, admitting every
// result file into the LRU ordered oldest access first and removing
// crash leftovers.
func (r *Results) scan() error {
	var idx resultsIndex
	if b, err := os.ReadFile(filepath.Join(r.dir, "index.json")); err == nil {
		// A corrupt index is dropped, not fatal: order degrades to mtime.
		_ = json.Unmarshal(b, &idx)
	}
	type entry struct {
		key   string
		size  int64
		atime int64
	}
	var found []entry
	shards, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("store: results dir: %w", err)
	}
	for _, sh := range shards {
		if err := removeTemp(r.dir, sh); err != nil {
			return err
		}
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		shard := filepath.Join(r.dir, sh.Name())
		files, err := os.ReadDir(shard)
		if err != nil {
			continue
		}
		for _, f := range files {
			if err := removeTemp(shard, f); err != nil {
				return err
			}
			key, ok := strings.CutSuffix(f.Name(), ".json")
			if !ok {
				continue
			}
			fi, err := f.Info()
			if err != nil {
				continue
			}
			at := fi.ModTime().UnixNano()
			if t, ok := idx.Atime[key]; ok {
				at = t
			}
			found = append(found, entry{key: key, size: fi.Size(), atime: at})
		}
	}
	sort.Slice(found, func(a, b int) bool { return found[a].atime < found[b].atime })
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range found {
		r.atime[e.key] = e.atime
		// Admitting oldest first leaves the newest at the LRU front; any
		// evictions here enforce a bound that shrank between runs.
		for _, ev := range r.lru.Add(e.key, e.size) {
			r.dropLocked(ev)
		}
	}
	return nil
}

// Get returns the payload bytes stored under key. A missing file is a
// miss; a file that fails the envelope checks (unreadable JSON, wrong
// key, CRC mismatch) is quarantined by renaming it to <name>.corrupt,
// counted, and reported as a miss — never a panic, and never served.
func (r *Results) Get(key string) ([]byte, bool) {
	path := r.path(key)
	b, err := os.ReadFile(path)
	if err != nil {
		r.misses.Add(1)
		return nil, false
	}
	var env resultEnvelope
	if err := json.Unmarshal(b, &env); err != nil || env.Key != key ||
		crc32.ChecksumIEEE(env.Payload) != env.CRC32 {
		r.quarantine(key, path)
		r.misses.Add(1)
		return nil, false
	}
	r.mu.Lock()
	r.lru.Touch(key)
	r.atime[key] = time.Now().UnixNano()
	r.mu.Unlock()
	r.hits.Add(1)
	return env.Payload, true
}

// Put stores payload under key atomically: the envelope is written to a
// temp file in the shard directory and renamed into place, so readers
// (and a crash at any instant) see either the old entry or the complete
// new one. GC then evicts the least recently used entries beyond the
// byte bound, and the access-time index is rewritten.
func (r *Results) Put(key string, payload []byte) error {
	env := resultEnvelope{V: 1, Key: key, CRC32: crc32.ChecksumIEEE(payload), Payload: payload}
	b, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("store: results marshal: %w", err)
	}
	path := r.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: results shard: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: results write: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: results write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: results write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: results write: %w", err)
	}
	r.writes.Add(1)
	r.mu.Lock()
	r.atime[key] = time.Now().UnixNano()
	for _, ev := range r.lru.Add(key, int64(len(b))) {
		r.dropLocked(ev)
		r.evictions.Add(1)
	}
	r.writeIndexLocked()
	r.mu.Unlock()
	return nil
}

// Len is the number of stored entries.
func (r *Results) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// Bytes is the on-disk footprint of the stored entries (envelope files
// only; the index is excluded).
func (r *Results) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Bytes()
}

// Stats snapshots the store counters.
func (r *Results) Stats() ResultsStats {
	r.mu.Lock()
	entries, bytes := r.lru.Len(), r.lru.Bytes()
	r.mu.Unlock()
	return ResultsStats{
		Hits:        r.hits.Load(),
		Misses:      r.misses.Load(),
		Writes:      r.writes.Load(),
		GCEvictions: r.evictions.Load(),
		Corrupt:     r.corrupt.Load(),
		Entries:     entries,
		Bytes:       bytes,
	}
}

// close persists the in-memory access times so the next open rebuilds
// the same LRU order.
func (r *Results) close() {
	r.mu.Lock()
	r.writeIndexLocked()
	r.mu.Unlock()
}

// quarantine sidelines a failed-verification file as <name>.corrupt and
// forgets it; the key reads as a miss from now on.
func (r *Results) quarantine(key, path string) {
	_ = os.Rename(path, path+".corrupt")
	r.corrupt.Add(1)
	r.mu.Lock()
	r.lru.Remove(key)
	delete(r.atime, key)
	r.mu.Unlock()
}

// dropLocked deletes an evicted entry's file; the caller holds r.mu.
func (r *Results) dropLocked(ev Eviction) {
	os.Remove(r.path(ev.Key))
	delete(r.atime, ev.Key)
}

// writeIndexLocked rewrites index.json atomically; the caller holds
// r.mu. Best-effort — a failure costs LRU-order fidelity, not data.
func (r *Results) writeIndexLocked() {
	b, err := json.Marshal(resultsIndex{Atime: r.atime})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(r.dir, "index-*.tmp")
	if err != nil {
		return
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(r.dir, "index.json")); err != nil {
		os.Remove(tmp.Name())
	}
}

// path is the sharded location of key's envelope file. Keys are hex
// SHA-256 digests; anything shorter than the shard width lands in a
// literal-named shard, still valid, just unsharded.
func (r *Results) path(key string) string {
	shard := key
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(r.dir, shard, key+".json")
}

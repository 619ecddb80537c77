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
// read. A byte-bounded LRU garbage-collects the least recently used
// entries. Each file's mtime, stamped at every write and hit, is its
// only recency record, so the LRU order survives a restart and a kill.
type Results struct {
	dir string

	hits      atomic.Int64
	misses    atomic.Int64
	writes    atomic.Int64
	evictions atomic.Int64
	corrupt   atomic.Int64

	mu  sync.Mutex
	lru *ByteLRU
}

// OpenResults scans dir (created if absent) and rebuilds the LRU from
// the files' mtimes. Files no open admits are removed: temp files a
// crash left in dir or its shard dirs, and the access-time index and
// quarantined .corrupt files of older binaries. maxBytes bounds the
// on-disk footprint (<= 0 selects 1 GiB); entries beyond it are evicted
// least-recently-used first on Put.
func OpenResults(dir string, maxBytes int64) (*Results, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: results dir: %w", err)
	}
	r := &Results{
		dir: dir,
		lru: NewByteLRU(0, maxBytes),
	}
	if err := r.scan(); err != nil {
		return nil, err
	}
	return r, nil
}

// scan walks the shard directories, admitting every result file into
// the LRU ordered by (mtime, key), oldest first, and removing leftovers.
// The key breaks ties a coarse filesystem clock can leave.
func (r *Results) scan() error {
	type entry struct {
		key   string
		size  int64
		mtime int64
	}
	var found []entry
	shards, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("store: results dir: %w", err)
	}
	for _, sh := range shards {
		if err := removeLeftover(r.dir, sh, ".tmp", "index.json"); err != nil {
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
			if err := removeLeftover(shard, f, ".tmp", ".corrupt"); err != nil {
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
			found = append(found, entry{key: key, size: fi.Size(), mtime: fi.ModTime().UnixNano()})
		}
	}
	sort.Slice(found, func(a, b int) bool {
		if found[a].mtime != found[b].mtime {
			return found[a].mtime < found[b].mtime
		}
		return found[a].key < found[b].key
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range found {
		// Admitting oldest first leaves the newest at the LRU front; any
		// evictions here enforce a bound that shrank between runs.
		for _, ev := range r.lru.Add(e.key, e.size) {
			os.Remove(r.path(ev.Key))
		}
	}
	return nil
}

// Get returns the payload bytes stored under key and stamps the file's
// mtime, so the hit's recency is on disk when Get returns. A missing
// file is a miss; a file that fails the envelope checks (unreadable
// JSON, wrong key, CRC mismatch) is deleted, counted, and reported as a
// miss — never a panic, and never served.
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
		r.removeCorrupt(key, path)
		r.misses.Add(1)
		return nil, false
	}
	// A failed stamp costs only the entry's place in the next open's
	// order, never the hit.
	_ = stamp(path)
	r.mu.Lock()
	r.lru.Touch(key)
	r.mu.Unlock()
	r.hits.Add(1)
	return env.Payload, true
}

// Put stores payload under key atomically: the envelope is written to a
// temp file in the shard directory and renamed into place, so readers
// (and a crash at any instant) see either the old entry or the complete
// new one. The temp file's mtime is stamped before the rename. GC then
// evicts the least recently used entries beyond the byte bound.
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
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = stamp(tmp.Name())
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: results write: %w", err)
	}
	r.writes.Add(1)
	r.mu.Lock()
	for _, ev := range r.lru.Add(key, int64(len(b))) {
		os.Remove(r.path(ev.Key))
		r.evictions.Add(1)
	}
	r.mu.Unlock()
	return nil
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

// removeCorrupt deletes a file that failed verification and forgets its
// key, which reads as a miss until it is written again. The bytes can
// never be served, and kept they would escape the byte bound; the
// corrupt counter is the record.
func (r *Results) removeCorrupt(key, path string) {
	// A failed remove leaves the file to fail its check again on the
	// next Get of key.
	_ = os.Remove(path)
	r.corrupt.Add(1)
	r.mu.Lock()
	r.lru.Remove(key)
	r.mu.Unlock()
}

// stamp sets path's mtime to now at the clock's full precision: the
// mtime is the entry's recency record, and the filesystem's own write
// stamp can tie between writes milliseconds apart.
func stamp(path string) error {
	now := time.Now()
	return os.Chtimes(path, now, now)
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

// Package store is tqecd's zero-dependency durable storage layer: a
// content-addressed result store (one CRC-checked file per cache key,
// written via temp-file + rename, byte-bounded by an LRU whose order is
// each file's mtime)
// and a write-ahead job log (append-only, length-prefixed, CRC-framed
// segments with rotation and compaction). Together they let a restarted
// daemon serve previously compiled results as done_cached and re-queue
// the jobs that were queued or running at crash time.
//
// The package is deliberately independent of internal/service and
// internal/fleet: WAL records carry an opaque type/job-id/JSON-data
// triple, and the result store maps hex keys to payload bytes. The
// consumers define the record vocabulary and replay semantics — replay
// is at-least-once, which the pipeline's determinism for a fixed seed
// list makes safe (re-running a job yields a byte-identical payload).
//
// Durability model: every write reaches the operating system before the
// call returns, so the store survives process death (SIGKILL, panic,
// OOM) — the failure mode restarts actually hit. Writes are not fsynced;
// a whole-machine power loss can lose the most recent records and
// results, which only costs recomputation.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Options tunes Open. Zero values select defaults.
type Options struct {
	// MaxBytes bounds the result store's on-disk footprint before GC
	// evicts least-recently-used entries (default 1 GiB).
	MaxBytes int64
	// NoResults opens only the WAL — the fleet coordinator's mode, which
	// journals dispatch state but stores no payloads (workers own those).
	NoResults bool
}

// Store bundles the two durable halves under one data directory:
//
//	data-dir/
//	  results/ab/<key>.json   content-addressed result envelopes; the
//	                          mtime is the entry's recency for GC
//	  wal/NNNNNNNN.wal        framed job-lifecycle record segments
//
// Results is nil when opened with NoResults.
type Store struct {
	Dir     string
	Results *Results
	WAL     *WAL
}

// Stats is the GET /v1/store document.
type Stats struct {
	Dir     string        `json:"dir"`
	Results *ResultsStats `json:"results,omitempty"`
	WAL     WALStats      `json:"wal"`
}

// Open creates (or reopens) the store under dir, recovering the WAL's
// clean record prefix for the caller to replay.
func Open(dir string, o Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty data dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: data dir: %w", err)
	}
	s := &Store{Dir: dir}
	var err error
	if !o.NoResults {
		s.Results, err = OpenResults(filepath.Join(dir, "results"), o.MaxBytes)
		if err != nil {
			return nil, err
		}
	}
	s.WAL, err = OpenWAL(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Close releases the WAL's segment handle. The result store holds
// nothing open: each write and hit is on disk when its call returns.
func (s *Store) Close() error {
	return s.WAL.Close()
}

// Stats snapshots both halves.
func (s *Store) Stats() Stats {
	st := Stats{Dir: s.Dir, WAL: s.WAL.Stats()}
	if s.Results != nil {
		rs := s.Results.Stats()
		st.Results = &rs
	}
	return st
}

// removeLeftover deletes e, an entry of dir, when it is a file whose
// name ends in one of suffixes: a file no open admits, so its bytes
// would escape the store's bounds. Every writer here renames its temp
// file into place or removes it before it returns, so a *.tmp file found
// at open was left by a crash; a data dir has one writer, so no live
// write owns it. The other suffixes name files only older binaries wrote.
func removeLeftover(dir string, e os.DirEntry, suffixes ...string) error {
	isLeftover := func(suf string) bool { return strings.HasSuffix(e.Name(), suf) }
	if e.IsDir() || !slices.ContainsFunc(suffixes, isLeftover) {
		return nil
	}
	if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
		return fmt.Errorf("store: remove leftover: %w", err)
	}
	return nil
}

package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testKey builds a plausible 64-hex-digit cache key with a recognizable
// prefix so shard paths are exercised the way real SHA-256 keys are.
func testKey(n int) string {
	return fmt.Sprintf("%02x", n) + strings.Repeat("0", 62)
}

func openTestResults(t *testing.T, dir string, maxBytes int64) *Results {
	t.Helper()
	r, err := OpenResults(dir, maxBytes)
	if err != nil {
		t.Fatalf("OpenResults: %v", err)
	}
	return r
}

func TestResultsPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := openTestResults(t, dir, 0)
	key := testKey(0xab)
	payload := []byte(`{"name":"threecnot","volume":42}`)
	if err := r.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := r.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload back", got, ok)
	}
	// The file must live in the two-hex-digit shard directory.
	if _, err := os.Stat(filepath.Join(dir, "ab", key+".json")); err != nil {
		t.Errorf("sharded file missing: %v", err)
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Writes != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if _, ok := r.Get(testKey(0xcd)); ok {
		t.Error("Get of absent key succeeded")
	}
	if got := r.Stats().Misses; got != 1 {
		t.Errorf("Misses = %d, want 1", got)
	}
}

func TestResultsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	r := openTestResults(t, dir, 0)
	key := testKey(1)
	if err := r.Put(key, []byte(`{"v":1}`)); err != nil {
		t.Fatalf("Put: %v", err)
	}

	r2 := openTestResults(t, dir, 0)
	if got, ok := r2.Get(key); !ok || !bytes.Equal(got, []byte(`{"v":1}`)) {
		t.Fatalf("after reopen Get = %q, %v", got, ok)
	}
	if st := r2.Stats(); st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats = %+v, want 1 entry of > 0 bytes", st)
	}
}

// TestResultsCorruptEntryRemoved: a flipped payload byte must read as a
// miss and delete the file, whose bytes could never be served and would
// escape the byte bound, and never panic.
func TestResultsCorruptEntryRemoved(t *testing.T) {
	dir := t.TempDir()
	r := openTestResults(t, dir, 0)
	key := testKey(0xab)
	if err := r.Put(key, []byte(`{"name":"threecnot"}`)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := filepath.Join(dir, "ab", key+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Flip one byte inside the payload's value region so the envelope
	// still parses but the CRC no longer matches.
	i := bytes.Index(b, []byte("threecnot"))
	if i < 0 {
		t.Fatal("payload text not found in envelope")
	}
	b[i] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	if _, ok := r.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	for _, p := range []string{path, path + ".corrupt"} {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s on disk after a corrupt read (stat: %v)", p, err)
		}
	}
	st := r.Stats()
	if st.Corrupt != 1 || st.Misses != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want corrupt=1 misses=1 entries=0", st)
	}
	// The key is re-writable after the removal.
	if err := r.Put(key, []byte(`{"name":"threecnot"}`)); err != nil {
		t.Fatalf("Put after removal: %v", err)
	}
	if _, ok := r.Get(key); !ok {
		t.Error("re-written entry missed")
	}
}

func TestResultsGCEvictsLRUByBytes(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(strings.Repeat("x", 200))
	wrapped := `{"p":"` + string(payload) + `"}`
	// Envelope overhead ≈ 100 bytes; bound the store to about two entries.
	r := openTestResults(t, dir, 700)
	for i := 1; i <= 3; i++ {
		if err := r.Put(testKey(i), []byte(wrapped)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if got := r.Stats().Entries; got != 2 {
		t.Fatalf("Entries = %d, want 2 after GC", got)
	}
	if _, ok := r.Get(testKey(1)); ok {
		t.Error("oldest entry survived GC")
	}
	st := r.Stats()
	if st.GCEvictions != 1 {
		t.Errorf("GCEvictions = %d, want 1", st.GCEvictions)
	}
	if st.Bytes > 700 {
		t.Errorf("Bytes = %d, want <= bound", st.Bytes)
	}
}

// TestResultsGCOrderSurvivesReopen: touching an old entry, then
// reopening without any close, as after a kill, must protect it from the
// next GC — the hit's mtime stamp is on disk when Get returns.
func TestResultsGCOrderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	wrapped := `{"p":"` + strings.Repeat("x", 200) + `"}`
	r := openTestResults(t, dir, 700)
	if err := r.Put(testKey(1), []byte(wrapped)); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(testKey(2), []byte(wrapped)); err != nil {
		t.Fatal(err)
	}
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := r.Get(testKey(1)); !ok {
		t.Fatal("Get 1 missed")
	}

	r2 := openTestResults(t, dir, 700)
	if err := r2.Put(testKey(3), []byte(wrapped)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r2.Get(testKey(1)); !ok {
		t.Error("recently touched entry evicted — hit recency lost")
	}
	if _, ok := r2.Get(testKey(2)); ok {
		t.Error("LRU victim survived")
	}
}

// TestResultsDirHoldsOnlyEntries: after Puts, hits, an eviction and a
// reopen, results/ holds nothing but ab/<key>.json files. An older
// binary's access-time index and quarantined .corrupt file, planted
// before the reopen, are gone after it.
func TestResultsDirHoldsOnlyEntries(t *testing.T) {
	dir := t.TempDir()
	wrapped := `{"p":"` + strings.Repeat("x", 200) + `"}`
	r := openTestResults(t, dir, 700)
	for i := 1; i <= 3; i++ {
		if err := r.Put(testKey(i), []byte(wrapped)); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Get(testKey(i)); !ok {
			t.Fatalf("Get %d missed", i)
		}
	}
	if got := r.Stats().GCEvictions; got != 1 {
		t.Fatalf("GCEvictions = %d, want 1", got)
	}
	for _, p := range []string{"index.json", filepath.Join("02", "x.json.corrupt")} {
		if err := os.WriteFile(filepath.Join(dir, p), []byte(`{}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	openTestResults(t, dir, 700)
	var got []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, p)
			got = append(got, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join("02", testKey(2)+".json"),
		filepath.Join("03", testKey(3)+".json"),
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("results dir holds %q, want %q", got, want)
	}
}

// BenchmarkResultsPut times one Put of a ~726-byte envelope, the
// benchmark service's size, into a store bounded to hold n entries, so
// every Put also evicts one. A Put's cost must not grow with n.
func BenchmarkResultsPut(b *testing.B) {
	payload := []byte(`{"p":"` + strings.Repeat("x", 608) + `"}`)
	key := func(i int) string {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		return hex.EncodeToString(sum[:])
	}
	probe, err := OpenResults(b.TempDir(), 0)
	if err == nil {
		err = probe.Put(key(0), payload)
	}
	if err != nil {
		b.Fatal(err)
	}
	size := probe.Stats().Bytes
	for _, n := range []int{400, 4400} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			r, err := OpenResults(b.TempDir(), int64(n)*size)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := r.Put(key(i), payload); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Put(key(n+i), payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestStoreOpenCloseAndStats(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Results == nil {
		t.Fatal("Results nil without NoResults")
	}
	if err := s.WAL.Append("submitted", "j000001", 1, nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	st := s.Stats()
	if st.Dir != dir || st.Results == nil || st.WAL.Records != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	coord, err := Open(dir, Options{NoResults: true})
	if err != nil {
		t.Fatalf("Open NoResults: %v", err)
	}
	defer coord.Close()
	if coord.Results != nil {
		t.Error("Results non-nil with NoResults")
	}
	if got := coord.Stats().Results; got != nil {
		t.Error("Stats.Results non-nil with NoResults")
	}
	if got := len(coord.WAL.Recovered()); got != 1 {
		t.Errorf("recovered %d records, want 1", got)
	}
}

// TestOpenRemovesCrashLeftovers plants the temp file each writer leaves
// when the process dies between create and rename: Results.Put's in a
// shard dir, an older binary's index rewrite's and WAL compaction's.
// Open removes all three and keeps the real entry and record.
func TestOpenRemovesCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	key := testKey(0xab)
	if err := s.Results.Put(key, []byte(`{"v":1}`)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.WAL.Append("submitted", "j000001", 1, nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	leftovers := []string{
		filepath.Join(dir, "results", "ab", "put-crash.tmp"),
		filepath.Join(dir, "results", "index-crash.tmp"),
		filepath.Join(dir, "wal", "compact-crash.tmp"),
	}
	for _, p := range leftovers {
		if err := os.WriteFile(p, bytes.Repeat([]byte("x"), 4096), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for _, p := range leftovers {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s survived open (stat: %v)", p, err)
		}
	}
	if _, ok := s2.Results.Get(key); !ok {
		t.Error("real entry lost")
	}
	if got := len(s2.WAL.Recovered()); got != 1 {
		t.Errorf("recovered %d records, want 1", got)
	}
}

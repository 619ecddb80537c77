package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openTestWAL(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

func TestWALAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	for i, typ := range []string{"submitted", "started", "terminal"} {
		if err := w.Append(typ, "j000001", int64(1000+i), map[string]int{"i": i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := openTestWAL(t, dir)
	defer w2.Close()
	recs := w2.Recovered()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, rec.Seq, i+1)
		}
		if rec.JobID != "j000001" {
			t.Errorf("record %d: job %q", i, rec.JobID)
		}
	}
	if recs[2].Type != "terminal" {
		t.Errorf("last type %q, want terminal", recs[2].Type)
	}
	// A fresh append continues the sequence.
	if err := w2.Append("submitted", "j000002", 2000, nil); err != nil {
		t.Fatalf("Append after recover: %v", err)
	}
	if got := w2.Stats().Replayed; got != 3 {
		t.Errorf("Replayed = %d, want 3", got)
	}
}

// TestWALTruncatedTail is the corruption satellite: a torn final record
// (simulating a crash mid-write) must replay the clean prefix, count
// one truncation, and leave the segment appendable.
func TestWALTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	if err := w.Append("submitted", "j000001", 1, nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append("submitted", "j000002", 2, nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	w.Close()

	// Tear the last record: chop a few bytes off the segment's tail.
	seg := filepath.Join(dir, "00000001.wal")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	w2 := openTestWAL(t, dir)
	recs := w2.Recovered()
	if len(recs) != 1 || recs[0].JobID != "j000001" {
		t.Fatalf("recovered %+v, want only j000001", recs)
	}
	if got := w2.Stats().Truncated; got != 1 {
		t.Errorf("Truncated = %d, want 1", got)
	}
	// The tail was cut back to the clean prefix: new appends and a third
	// recovery see a fully clean log again.
	if err := w2.Append("submitted", "j000003", 3, nil); err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
	w2.Close()
	w3 := openTestWAL(t, dir)
	defer w3.Close()
	if got := len(w3.Recovered()); got != 2 {
		t.Fatalf("after repair recovered %d records, want 2", got)
	}
	if got := w3.Stats().Truncated; got != 0 {
		t.Errorf("after repair Truncated = %d, want 0", got)
	}
}

// TestWALCorruptCRC flips a payload byte mid-file; recovery must stop at
// the corrupt frame rather than deliver a damaged record.
func TestWALCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	for _, id := range []string{"j000001", "j000002", "j000003"} {
		if err := w.Append("submitted", id, 1, nil); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	w.Close()

	seg := filepath.Join(dir, "00000001.wal")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Flip a byte inside the second record's payload (records are equal
	// length here, so 1.5 frames in lands mid-payload of record two).
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	w2 := openTestWAL(t, dir)
	defer w2.Close()
	recs := w2.Recovered()
	if len(recs) != 1 || recs[0].JobID != "j000001" {
		t.Fatalf("recovered %+v, want only the pre-corruption record", recs)
	}
	if got := w2.Stats().Truncated; got != 1 {
		t.Errorf("Truncated = %d, want 1", got)
	}
}

func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	// Tiny segments force rotation nearly every append.
	w.segBytes = 64
	for _, id := range []string{"j000001", "j000002", "j000003", "j000004"} {
		if err := w.Append("submitted", id, 1, map[string]string{"pad": "xxxxxxxxxxxxxxxx"}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := w.Append("terminal", id, 2, nil); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := w.Stats().Segments; got < 2 {
		t.Fatalf("segments = %d, want rotation to have produced several", got)
	}

	// Retain only j000003's records.
	if err := w.Compact(func(jobID string) bool { return jobID == "j000003" }); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := w.Stats().Segments; got != 1 {
		t.Errorf("after compact segments = %d, want 1", got)
	}
	// Appends continue on the compacted segment and recovery sees the
	// retained history plus the new record.
	if err := w.Append("submitted", "j000005", 3, nil); err != nil {
		t.Fatalf("Append after compact: %v", err)
	}
	w.Close()
	w2 := openTestWAL(t, dir)
	defer w2.Close()
	recs := w2.Recovered()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3 (two retained + one new)", len(recs))
	}
	if recs[0].JobID != "j000003" || recs[1].JobID != "j000003" || recs[2].JobID != "j000005" {
		t.Errorf("recovered jobs %q %q %q", recs[0].JobID, recs[1].JobID, recs[2].JobID)
	}
	if recs[2].Seq <= recs[1].Seq {
		t.Errorf("sequence not preserved across compaction: %d then %d", recs[1].Seq, recs[2].Seq)
	}
}

func TestWALEmptyDirRecoversNothing(t *testing.T) {
	w := openTestWAL(t, t.TempDir())
	defer w.Close()
	if got := len(w.Recovered()); got != 0 {
		t.Fatalf("recovered %d records from empty dir", got)
	}
	if err := w.Append("submitted", "j000001", 1, nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

// TestWALRejectsOversizedRecord: a record whose frame recovery would drop
// as torn must fail at Append and write nothing, so the records around it
// recover and the log counts no truncation.
func TestWALRejectsOversizedRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a record over the 64 MiB frame limit")
	}
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	if err := w.Append("submitted", "j000001", 1, nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append("submitted", "j000002", 2, strings.Repeat("x", maxWALRecordBytes)); err == nil {
		t.Fatal("oversized Append returned nil")
	}
	if err := w.Append("submitted", "j000003", 3, nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	w.Close()

	w2 := openTestWAL(t, dir)
	defer w2.Close()
	recs := w2.Recovered()
	if len(recs) != 2 || recs[0].JobID != "j000001" || recs[1].JobID != "j000003" {
		t.Fatalf("recovered %+v, want j000001 and j000003", recs)
	}
	if recs[1].Seq != recs[0].Seq+1 {
		t.Errorf("rejected record consumed a sequence number: %d then %d", recs[0].Seq, recs[1].Seq)
	}
	if got := w2.Stats().Truncated; got != 0 {
		t.Errorf("Truncated = %d, want 0", got)
	}
}

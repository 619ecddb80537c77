package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALSegment feeds the segment reader arbitrary bytes, as a crash or
// a bad disk could leave them: it must not panic, the clean prefix it
// reports must lie inside the file, and that prefix read on its own must
// give the same records and the same offset (recovery truncates to it).
func FuzzWALSegment(f *testing.F) {
	var clean []byte
	var frameEnds []int
	for i, id := range []string{"j000001", "j000002", "j000003"} {
		frame, err := encodeFrame(Record{Seq: uint64(i + 1), Type: "submitted", JobID: id, TimeUnixMS: int64(i)})
		if err != nil {
			f.Fatal(err)
		}
		clean = append(clean, frame...)
		frameEnds = append(frameEnds, len(clean))
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3]) // torn tail
	crcFlip := append([]byte(nil), clean...)
	crcFlip[frameEnds[0]+4] ^= 0xFF // the second frame's CRC
	f.Add(crcFlip)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "00000001.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, off, err := readSegment(path)
		if err != nil {
			t.Fatalf("readSegment: %v", err)
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("clean prefix ends at %d, outside the %d-byte segment", off, len(data))
		}
		if err := os.Truncate(path, off); err != nil {
			t.Fatal(err)
		}
		again, off2, err := readSegment(path)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if off2 != off || !reflect.DeepEqual(again, recs) {
			t.Fatalf("truncated re-read gave %d records ending at %d, want %d ending at %d", len(again), off2, len(recs), off)
		}
	})
}

package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Record is one framed write-ahead-log entry. The store assigns Seq;
// Type, JobID, and Data are the caller's job-lifecycle vocabulary — the
// WAL itself never interprets them, which keeps internal/store free of
// service imports.
type Record struct {
	Seq        uint64          `json:"seq"`
	Type       string          `json:"type"`
	JobID      string          `json:"job_id,omitempty"`
	TimeUnixMS int64           `json:"time_unix_ms"`
	Data       json.RawMessage `json:"data,omitempty"`
}

// walFrameHeader is [4-byte big-endian payload length][4-byte big-endian
// IEEE CRC32 of the payload]. The CRC covers only the JSON payload; a
// torn write of either the header or the payload fails the frame check
// and recovery truncates the segment back to the last clean frame.
const walFrameHeader = 8

// walSegmentBytes is the size past which Append starts a new segment.
const walSegmentBytes = 4 << 20

// maxWALRecordBytes bounds one frame's payload. Recovery treats a longer
// length prefix as corrupt (it must not trigger a multi-gigabyte
// allocation), so Append refuses to write such a frame: the log never
// acknowledges a record that replay would discard.
const maxWALRecordBytes = 64 << 20

// WALStats is a point-in-time snapshot of the log, also the source the
// tqecd_store_wal_* metric families are sampled from.
type WALStats struct {
	// Records counts appends since open; Replayed is how many clean
	// records the open-time scan recovered; Truncated counts corrupt or
	// torn tail records dropped during recovery (cumulative over opens
	// is not tracked — this is this process's recovery only).
	Records   int64 `json:"records"`
	Replayed  int64 `json:"replayed"`
	Truncated int64 `json:"truncated"`
	// Bytes and Segments describe the on-disk footprint right now.
	Bytes    int64 `json:"bytes"`
	Segments int   `json:"segments"`
}

// WAL is an append-only, CRC-framed, segment-rotated record log under
// dir (files NNNNNNNN.wal, numbered monotonically). One writer at a
// time; Append is safe for concurrent callers.
type WAL struct {
	dir      string
	segBytes int64 // rotation size, walSegmentBytes outside tests

	records   atomic.Int64
	truncated atomic.Int64

	mu        sync.Mutex
	f         *os.File // active segment, opened for append
	seg       int      // active segment number
	segSize   int64
	bytes     int64 // total across all segments
	segments  int
	seq       uint64
	recovered []Record
	closed    bool
}

// OpenWAL opens (or creates) the log under dir, scanning every segment
// in order. Clean records are exposed via Recovered for the caller to
// replay; a corrupt or torn tail in the final segment is truncated away
// so the next Append extends a clean prefix. A compaction temp file left
// by a crash is removed.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: wal dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: wal dir: %w", err)
	}
	for _, e := range ents {
		if err := removeLeftover(dir, e, ".tmp"); err != nil {
			return nil, err
		}
	}
	w := &WAL{dir: dir, segBytes: walSegmentBytes}
	segs, err := w.listSegments()
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		recs, cleanLen, err := readSegment(w.segPath(seg))
		if err != nil {
			return nil, err
		}
		fi, statErr := os.Stat(w.segPath(seg))
		if statErr != nil {
			return nil, fmt.Errorf("store: wal segment: %w", statErr)
		}
		if cleanLen < fi.Size() {
			w.truncated.Add(1)
			if i == len(segs)-1 {
				// Torn tail of the active segment: cut back to the clean
				// prefix so appends resume from a valid frame boundary.
				if err := os.Truncate(w.segPath(seg), cleanLen); err != nil {
					return nil, fmt.Errorf("store: wal truncate: %w", err)
				}
			}
			// Corruption mid-history (not the last segment) keeps the
			// segment's clean prefix and skips the rest; replay is
			// at-least-once, so losing suffix records only means some
			// jobs re-run.
		}
		w.recovered = append(w.recovered, recs...)
	}
	for _, r := range w.recovered {
		if r.Seq > w.seq {
			w.seq = r.Seq
		}
	}
	w.seg = 1
	if n := len(segs); n > 0 {
		w.seg = segs[n-1]
	}
	f, err := os.OpenFile(w.segPath(w.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: wal open: %w", err)
	}
	w.f = f
	if fi, err := f.Stat(); err == nil {
		w.segSize = fi.Size()
	}
	// The WAL is not yet shared, but the footprint helper asserts the
	// lock discipline, so honor it.
	w.mu.Lock()
	w.refreshFootprintLocked()
	w.mu.Unlock()
	return w, nil
}

// Recovered returns the clean records the open-time scan found, in
// append order. The slice is the caller's to keep; the WAL does not
// retain it after Compact.
func (w *WAL) Recovered() []Record { return w.recovered }

// Append frames one record and writes it to the active segment,
// rotating first when the segment is full. The write reaches the OS
// before Append returns (surviving process death, the failure mode the
// kill-and-restart tests exercise); it is not fsynced, so a power loss
// can cost the most recent records — an accepted trade for EDA batch
// jobs that can always be resubmitted. A record whose frame payload
// exceeds maxWALRecordBytes is an error, and nothing is written.
func (w *WAL) Append(typ, jobID string, timeUnixMS int64, data any) error {
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			return fmt.Errorf("store: wal marshal: %w", err)
		}
		raw = b
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: wal closed")
	}
	frame, err := encodeFrame(Record{Seq: w.seq + 1, Type: typ, JobID: jobID, TimeUnixMS: timeUnixMS, Data: raw})
	if err != nil {
		return err
	}
	w.seq++
	if w.segSize >= w.segBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	n := int64(len(frame))
	w.segSize += n
	w.bytes += n
	w.records.Add(1)
	return nil
}

// Compact rewrites the log to only the records whose JobID the retain
// callback accepts, collapsing every segment into one. The rewrite is
// crash-safe: retained records land in a temp file renamed to a fresh
// segment number before the old segments are removed; a crash between
// rename and removal leaves duplicate records, which replay tolerates
// (the last record per job wins). Sequence numbers are preserved.
func (w *WAL) Compact(retain func(jobID string) bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: wal closed")
	}
	segs, err := w.listSegments()
	if err != nil {
		return err
	}
	var kept []Record
	for _, seg := range segs {
		recs, _, err := readSegment(w.segPath(seg))
		if err != nil {
			return err
		}
		for _, r := range recs {
			if retain(r.JobID) {
				kept = append(kept, r)
			}
		}
	}
	newSeg := w.seg + 1
	tmp, err := os.CreateTemp(w.dir, "compact-*.tmp")
	if err != nil {
		return fmt.Errorf("store: wal compact: %w", err)
	}
	var size int64
	for _, r := range kept {
		n, err := writeFrame(tmp, r)
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
		size += n
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: wal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), w.segPath(newSeg)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: wal compact: %w", err)
	}
	// The compacted segment is durable under its final name; the old
	// segments are now redundant history.
	if w.f != nil {
		w.f.Close()
	}
	for _, seg := range segs {
		os.Remove(w.segPath(seg))
	}
	f, err := os.OpenFile(w.segPath(newSeg), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: wal compact reopen: %w", err)
	}
	w.f = f
	w.seg = newSeg
	w.segSize = size
	w.refreshFootprintLocked()
	return nil
}

// Close flushes nothing (appends are unbuffered) and releases the
// active segment handle.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// Stats snapshots the log.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	bytes, segments := w.bytes, w.segments
	replayed := int64(len(w.recovered))
	w.mu.Unlock()
	return WALStats{
		Records:   w.records.Load(),
		Replayed:  replayed,
		Truncated: w.truncated.Load(),
		Bytes:     bytes,
		Segments:  segments,
	}
}

// rotateLocked starts the next numbered segment; the caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: wal rotate: %w", err)
	}
	w.seg++
	f, err := os.OpenFile(w.segPath(w.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: wal rotate: %w", err)
	}
	w.f = f
	w.segSize = 0
	w.segments++
	return nil
}

func (w *WAL) segPath(n int) string {
	return filepath.Join(w.dir, fmt.Sprintf("%08d.wal", n))
}

// listSegments returns the segment numbers present, ascending.
func (w *WAL) listSegments() ([]int, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("store: wal dir: %w", err)
	}
	var segs []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "%08d.wal", &n); err == nil && fmt.Sprintf("%08d.wal", n) == e.Name() {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// refreshFootprintLocked recomputes bytes/segments from the directory;
// the caller holds w.mu.
func (w *WAL) refreshFootprintLocked() {
	segs, err := w.listSegments()
	if err != nil {
		return
	}
	w.segments = len(segs)
	w.bytes = 0
	for _, seg := range segs {
		if fi, err := os.Stat(w.segPath(seg)); err == nil {
			w.bytes += fi.Size()
		}
	}
}

// encodeFrame frames one record: header, then its JSON payload. A
// payload over maxWALRecordBytes is an error, since readSegment would
// drop it as torn.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: wal marshal: %w", err)
	}
	if len(payload) > maxWALRecordBytes {
		return nil, fmt.Errorf("store: wal record of %d bytes exceeds the %d-byte frame limit", len(payload), maxWALRecordBytes)
	}
	frame := make([]byte, walFrameHeader+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[walFrameHeader:], payload)
	return frame, nil
}

// writeFrame appends one framed record, returning the bytes written.
func writeFrame(f *os.File, rec Record) (int64, error) {
	frame, err := encodeFrame(rec)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(frame); err != nil {
		return 0, fmt.Errorf("store: wal append: %w", err)
	}
	return int64(len(frame)), nil
}

// readSegment scans one segment, returning the clean-prefix records and
// the byte offset where the clean prefix ends (== file size when the
// whole segment parsed). Any framing failure — short header, oversized
// length, CRC mismatch, short payload, bad JSON — ends the scan there.
func readSegment(path string) ([]Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: wal segment: %w", err)
	}
	defer f.Close()
	var (
		recs   []Record
		offset int64
		hdr    [walFrameHeader]byte
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return recs, offset, nil // clean EOF or torn header
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxWALRecordBytes {
			return recs, offset, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, offset, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, offset, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, offset, nil
		}
		recs = append(recs, rec)
		offset += walFrameHeader + int64(length)
	}
}

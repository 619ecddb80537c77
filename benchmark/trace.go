package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tqec/internal/obs"
)

// spanTotals sums a finished span tree by span name.
type spanTotals struct {
	total map[string]time.Duration // summed span durations
	self  map[string]time.Duration // summed self times
	spans int                      // spans below the root
}

// spanSums walks every span below root. A span's self time is its
// duration minus the part of its interval that its children cover; the
// union is taken, so children running in parallel are not counted twice.
func spanSums(root *obs.Span) spanTotals {
	t := spanTotals{total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		t.spans++
		d := s.Duration()
		t.total[s.Name] += d
		t.self[s.Name] += d - covered(s)
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, c := range root.Children {
		walk(c)
	}
	return t
}

// covered is the length of the union of s's child intervals, clipped to
// s's own interval.
func covered(s *obs.Span) time.Duration {
	type iv struct{ lo, hi time.Time }
	end := s.StartTime.Add(s.Duration())
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		lo, hi := c.StartTime, c.StartTime.Add(c.Duration())
		if lo.Before(s.StartTime) {
			lo = s.StartTime
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo.Before(ivs[b].lo) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.lo.After(cur.hi):
			if v.hi.After(cur.hi) {
				cur.hi = v.hi
			}
		default:
			sum += cur.hi.Sub(cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		sum += cur.hi.Sub(cur.lo)
	}
	return sum
}

// writeTrace writes the traced pass twice: as the nested span tree and
// in Chrome trace_event form for chrome://tracing or ui.perfetto.dev. It
// returns the span-tree path.
func writeTrace(cfg config, workload string, tr *obs.Tracer) (string, error) {
	base := filepath.Join(cfg.OutDir, fmt.Sprintf("trace-%s-seed%d", workload, cfg.Seed))
	for _, w := range []struct {
		path  string
		write func(*os.File) error
	}{
		{base + ".json", func(f *os.File) error { return tr.WriteJSON(f) }},
		{base + ".chrome.json", func(f *os.File) error { return tr.WriteChromeTrace(f) }},
	} {
		f, err := os.Create(w.path)
		if err != nil {
			return "", fmt.Errorf("write trace: %w", err)
		}
		if err := w.write(f); err != nil {
			f.Close()
			return "", fmt.Errorf("write trace %s: %w", w.path, err)
		}
		if err := f.Close(); err != nil {
			return "", fmt.Errorf("write trace %s: %w", w.path, err)
		}
	}
	return base + ".json", nil
}

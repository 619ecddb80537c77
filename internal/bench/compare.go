package bench

import (
	"fmt"
	"strings"

	"tqec/internal/compress"
)

// StageDelta compares one pipeline stage's wall-clock between a baseline
// trajectory entry and a current one.
type StageDelta struct {
	Stage  string  `json:"stage"`
	BaseMS float64 `json:"base_ms"`
	CurMS  float64 `json:"cur_ms"`
	// Ratio is CurMS/BaseMS; 0 when the baseline stage took no measurable
	// time (ratios against ~0 baselines are noise, not signal).
	Ratio float64 `json:"ratio,omitempty"`
}

// EntryDelta compares one benchmark between a baseline trajectory and a
// current run.
type EntryDelta struct {
	Name string `json:"name"`
	// Missing marks a baseline benchmark the current run did not execute.
	Missing     bool         `json:"missing,omitempty"`
	BaseVolume  int          `json:"base_volume,omitempty"`
	CurVolume   int          `json:"cur_volume,omitempty"`
	BasePlaced  int          `json:"base_placed,omitempty"`
	CurPlaced   int          `json:"cur_placed,omitempty"`
	BaseTotalMS float64      `json:"base_total_ms,omitempty"`
	CurTotalMS  float64      `json:"cur_total_ms,omitempty"`
	Stages      []StageDelta `json:"stages,omitempty"`
	// Regressions lists the tolerance breaches for this benchmark, empty
	// when the entry is within bounds.
	Regressions []string `json:"regressions,omitempty"`
}

// Comparison is the delta report of a current trajectory against a
// committed baseline (BENCH_seed.json).
type Comparison struct {
	BaseTag   string       `json:"base_tag"`
	CurTag    string       `json:"cur_tag"`
	Tolerance float64      `json:"tolerance"`
	Entries   []EntryDelta `json:"entries"`
	// Regressions is the total breach count across entries; 0 means the
	// run is no worse than the baseline within tolerance.
	Regressions int `json:"regressions"`
}

// DefaultCompareTolerance is the relative slack Compare allows before
// flagging a regression. It is deliberately loose: stage timings carry
// machine noise — the compare step exists to catch structural
// regressions (a stage suddenly 2× slower, volume jumping), not
// single-digit jitter.
const DefaultCompareTolerance = 0.25

// minCompareMS is the floor below which stage timings are reported but
// never flagged: sub-5ms stages are dominated by scheduler noise.
const minCompareMS = 5

// Compare diffs cur against base per benchmark. Placed volume is held to
// an exact match (placement is deterministic for a fixed seed — a drift
// there is an algorithm change, not noise); final volume and timings are
// held to the relative tolerance.
func Compare(base, cur Trajectory, tolerance float64) Comparison {
	if tolerance <= 0 {
		tolerance = DefaultCompareTolerance
	}
	out := Comparison{BaseTag: base.Tag, CurTag: cur.Tag, Tolerance: tolerance}
	curByName := map[string]TrajectoryEntry{}
	for _, e := range cur.Entries {
		curByName[e.Name] = e
	}
	for _, b := range base.Entries {
		c, ok := curByName[b.Name]
		if !ok {
			out.Entries = append(out.Entries, EntryDelta{Name: b.Name, Missing: true,
				Regressions: []string{"benchmark missing from current run"}})
			out.Regressions++
			continue
		}
		d := EntryDelta{
			Name:       b.Name,
			BaseVolume: b.Volume, CurVolume: c.Volume,
			BasePlaced: b.PlacedVolume, CurPlaced: c.PlacedVolume,
			BaseTotalMS: b.TotalMS, CurTotalMS: c.TotalMS,
		}
		if c.PlacedVolume != b.PlacedVolume {
			d.Regressions = append(d.Regressions, fmt.Sprintf(
				"placed volume %d -> %d (deterministic per seed; expected exact match)",
				b.PlacedVolume, c.PlacedVolume))
		}
		if b.Volume > 0 && float64(c.Volume) > float64(b.Volume)*(1+tolerance) {
			d.Regressions = append(d.Regressions, fmt.Sprintf(
				"final volume %d -> %d (+%.0f%%, tolerance %.0f%%)",
				b.Volume, c.Volume, 100*(float64(c.Volume)/float64(b.Volume)-1), 100*tolerance))
		}
		if b.TotalMS > minCompareMS && c.TotalMS > b.TotalMS*(1+tolerance) {
			d.Regressions = append(d.Regressions, fmt.Sprintf(
				"total time %.1fms -> %.1fms (+%.0f%%, tolerance %.0f%%)",
				b.TotalMS, c.TotalMS, 100*(c.TotalMS/b.TotalMS-1), 100*tolerance))
		}
		curStages := map[string]float64{}
		for _, st := range c.Stages {
			curStages[st.Stage] = st.MS
		}
		for _, st := range b.Stages {
			sd := StageDelta{Stage: st.Stage, BaseMS: st.MS, CurMS: curStages[st.Stage]}
			if st.MS > 0 {
				sd.Ratio = sd.CurMS / st.MS
			}
			d.Stages = append(d.Stages, sd)
			if st.MS > minCompareMS && sd.CurMS > st.MS*(1+tolerance) {
				d.Regressions = append(d.Regressions, fmt.Sprintf(
					"stage %s %.1fms -> %.1fms (+%.0f%%, tolerance %.0f%%)",
					st.Stage, st.MS, sd.CurMS, 100*(sd.Ratio-1), 100*tolerance))
			}
		}
		out.Regressions += len(d.Regressions)
		out.Entries = append(out.Entries, d)
	}
	return out
}

// FormatComparison renders the delta report as the table the CI step
// prints: one row per benchmark with volume and time movement, followed
// by any regressions.
func FormatComparison(c Comparison) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trajectory compare: %s -> %s (tolerance %.0f%%)\n\n",
		c.BaseTag, c.CurTag, 100*c.Tolerance)
	fmt.Fprintf(&sb, "  %-16s %10s %10s %12s %12s\n", "benchmark", "vol base", "vol cur", "time base", "time cur")
	for _, e := range c.Entries {
		if e.Missing {
			fmt.Fprintf(&sb, "  %-16s %10s\n", e.Name, "MISSING")
			continue
		}
		fmt.Fprintf(&sb, "  %-16s %10d %10d %10.1fms %10.1fms\n",
			e.Name, e.BaseVolume, e.CurVolume, e.BaseTotalMS, e.CurTotalMS)
	}
	any := false
	for _, e := range c.Entries {
		for _, r := range e.Regressions {
			if !any {
				fmt.Fprintf(&sb, "\nregressions:\n")
				any = true
			}
			fmt.Fprintf(&sb, "  [%s] %s\n", e.Name, r)
		}
	}
	if !any {
		fmt.Fprintf(&sb, "\nno regressions: within tolerance of the baseline\n")
	}
	return sb.String()
}

// EffortByName maps the trajectory-file effort label back to the
// pipeline's effort level, so a compare run can replay the baseline's
// exact configuration.
func EffortByName(name string) (compress.Effort, bool) {
	switch name {
	case "", "fast":
		return compress.EffortFast, true
	case "normal":
		return compress.EffortNormal, true
	case "high":
		return compress.EffortHigh, true
	default:
		return compress.EffortFast, false
	}
}

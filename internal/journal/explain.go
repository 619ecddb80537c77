package journal

import (
	"fmt"
	"sort"
	"strings"
)

// FormatExplain renders the journal as the human-readable explanation
// tqecc -explain prints: the volume waterfall, one-line summaries of the
// hot-loop trajectories, and the warnings.
func FormatExplain(j *Journal) string {
	if j == nil {
		return "no journal recorded\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "compression waterfall — %s (seed %d)\n\n", j.Name, j.Seed)
	fmt.Fprintf(&sb, "  %-14s %8s %8s  %s\n", "stage", "volume", "Δ", "mechanisms")
	fmt.Fprintf(&sb, "  %-14s %8d %8s\n", "canonical", j.CanonicalVolume, "")
	for _, e := range j.Stages {
		fmt.Fprintf(&sb, "  %-14s %8d %+8d  %s\n", e.Stage, e.VolumeAfter, e.Delta, formatMechanisms(e.Mechanisms))
	}
	total := j.FinalVolume - j.CanonicalVolume
	pct := "n/a"
	if j.CanonicalVolume > 0 {
		pct = fmt.Sprintf("%.1f%% of canonical", 100*float64(j.FinalVolume)/float64(j.CanonicalVolume))
	}
	fmt.Fprintf(&sb, "  %-14s %8d %+8d  (%s)\n", "total", j.FinalVolume, total, pct)

	if n := len(j.Anneal); n > 0 {
		moves, accepted := 0, 0
		for _, e := range j.Anneal {
			moves += e.Moves
			accepted += e.Accepted
		}
		rate := 0.0
		if moves > 0 {
			rate = 100 * float64(accepted) / float64(moves)
		}
		fmt.Fprintf(&sb, "\nanneal:   %d epochs, %d moves, %d accepted (%.1f%%), T %.3g → %.3g\n",
			n, moves, accepted, rate, j.Anneal[0].Temp, j.Anneal[n-1].Temp)
	}
	if n := len(j.RouteRounds); n > 0 {
		searches, expansions := 0, 0
		for _, r := range j.RouteRounds {
			searches += r.Searches
			expansions += r.Expansions
		}
		// The route stage's whole time over its expansions: it includes
		// the stage's set-up, so it bounds the search's cost per cell.
		perCell := ""
		for _, e := range j.Stages {
			if e.Stage == "route" && e.DurationMS > 0 && expansions > 0 {
				perCell = fmt.Sprintf(" at %.0f ns each", e.DurationMS*1e6/float64(expansions))
			}
		}
		fmt.Fprintf(&sb, "routing:  %d negotiation rounds, %d A* searches, %d expansions%s, final overflow %d\n",
			n, searches, expansions, perCell, j.RouteRounds[n-1].Overflow)
	}
	if n := len(j.DualPasses); n > 0 {
		merges := 0
		for _, p := range j.DualPasses {
			merges += p.Merges
		}
		fmt.Fprintf(&sb, "dual:     %d passes, %d merges\n", n, merges)
	}
	if len(j.Warnings) > 0 {
		fmt.Fprintf(&sb, "\nwarnings:\n")
		for _, w := range j.Warnings {
			fmt.Fprintf(&sb, "  [%s] %s\n", w.Code, w.Message)
		}
	}
	if j.EventsDropped > 0 {
		fmt.Fprintf(&sb, "\n(%d events dropped by the ring buffer; trajectories may be truncated)\n", j.EventsDropped)
	}
	return sb.String()
}

// formatMechanisms renders mechanism counts as sorted key=value pairs so
// the output is deterministic.
func formatMechanisms(m map[string]int) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}

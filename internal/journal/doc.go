package journal

import "fmt"

// StageEntry is one row of the volume waterfall: what one pipeline stage
// did to the running volume and the mechanism counts responsible.
//
// The waterfall invariant (pinned by tests and documented in DESIGN.md
// §10) is that entries telescope: the first VolumeBefore is the canonical
// volume, each VolumeAfter equals the next entry's VolumeBefore, and the
// last VolumeAfter is the final compiled volume — so the deltas sum
// exactly from CanonicalVolume to Volume. Stages whose effect is realized
// later (I-shaped merges, bridging) carry a zero delta plus the mechanism
// counts that earn the compression when placement cashes them in.
type StageEntry struct {
	Stage        string         `json:"stage"`
	VolumeBefore int            `json:"volume_before"`
	VolumeAfter  int            `json:"volume_after"`
	Delta        int            `json:"delta"`
	Mechanisms   map[string]int `json:"mechanisms,omitempty"`
	DurationMS   float64        `json:"duration_ms"`
}

// Warning is one surfaced anomaly.
type Warning struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Seed    int64  `json:"seed,omitempty"`
}

// AnnealEpoch is one point of the simulated-annealing trajectory.
type AnnealEpoch struct {
	Epoch    int     `json:"epoch"`
	Temp     float64 `json:"temp"`
	Moves    int     `json:"moves"`
	Accepted int     `json:"accepted"`
}

// RouteRound is one PathFinder negotiation round: the nets it ripped up
// and rerouted, the A* searches they took and the cells those expanded,
// and the overflow left after it.
type RouteRound struct {
	Round      int `json:"round"`
	Ripped     int `json:"ripped"`
	Searches   int `json:"searches"`
	Expansions int `json:"expansions"`
	Overflow   int `json:"overflow"`
}

// DualPass is one dual-bridging merge-iteration pass.
type DualPass struct {
	Pass   int `json:"pass"`
	Merges int `json:"merges"`
}

// Journal is the structured flight-recorder document of one compile: the
// volume waterfall, the hot-loop trajectories, and the warnings, folded
// from the compile's events. It is attached to compress.Result when a
// recorder was installed in the compile's context, and served by tqecd's
// /v1/jobs/{id}/journal.
type Journal struct {
	Name            string        `json:"name"`
	Seed            int64         `json:"seed"`
	CanonicalVolume int           `json:"canonical_volume"`
	FinalVolume     int           `json:"final_volume"`
	Stages          []StageEntry  `json:"stages"`
	Anneal          []AnnealEpoch `json:"anneal,omitempty"`
	RouteRounds     []RouteRound  `json:"route_rounds,omitempty"`
	DualPasses      []DualPass    `json:"dual_passes,omitempty"`
	Warnings        []Warning     `json:"warnings,omitempty"`
	// EventsDropped counts the raw events the recorder's ring buffer
	// dropped; the document itself is folded from every event.
	EventsDropped int64 `json:"events_dropped,omitempty"`
}

// CheckWaterfall validates the waterfall invariant: entries telescope
// from CanonicalVolume to FinalVolume with consistent deltas.
func (j *Journal) CheckWaterfall() error {
	if j == nil {
		return fmt.Errorf("journal: nil")
	}
	if len(j.Stages) == 0 {
		return fmt.Errorf("journal: no stage entries")
	}
	if first := j.Stages[0].VolumeBefore; first != j.CanonicalVolume {
		return fmt.Errorf("journal: first stage starts at %d, want canonical %d", first, j.CanonicalVolume)
	}
	sum := 0
	prev := j.Stages[0].VolumeBefore
	for _, e := range j.Stages {
		if e.VolumeBefore != prev {
			return fmt.Errorf("journal: stage %s starts at %d, previous ended at %d", e.Stage, e.VolumeBefore, prev)
		}
		if e.Delta != e.VolumeAfter-e.VolumeBefore {
			return fmt.Errorf("journal: stage %s delta %d != %d-%d", e.Stage, e.Delta, e.VolumeAfter, e.VolumeBefore)
		}
		sum += e.Delta
		prev = e.VolumeAfter
	}
	if prev != j.FinalVolume {
		return fmt.Errorf("journal: last stage ends at %d, want final %d", prev, j.FinalVolume)
	}
	if sum != j.FinalVolume-j.CanonicalVolume {
		return fmt.Errorf("journal: deltas sum to %d, want %d", sum, j.FinalVolume-j.CanonicalVolume)
	}
	return nil
}

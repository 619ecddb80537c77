package compress

// Report is the machine-readable record of one compilation, for tooling
// and experiment archives.
type Report struct {
	Name                 string  `json:"name"`
	Mode                 string  `json:"mode"`
	CanonicalVolume      int     `json:"canonical_volume"`
	Modules              int     `json:"modules"`
	Nodes                int     `json:"nodes"`
	IShapeMerges         int     `json:"ishape_merges"`
	DualNets             int     `json:"dual_nets"`
	DualComponents       int     `json:"dual_components"`
	PlacedVolume         int     `json:"placed_volume"`
	Volume               int     `json:"volume"`
	Wirelength           int     `json:"wirelength"`
	RouteOverflow        int     `json:"route_overflow"`
	RouteFailed          int     `json:"route_failed"`
	RouteSqueezed        int     `json:"route_squeezed"`
	Seconds              float64 `json:"seconds"`
	ReductionVsCanonical float64 `json:"reduction_vs_canonical"`
	// Seed-restart accounting (CompileBest only; zero for single compiles).
	SeedsTried  int      `json:"seeds_tried,omitempty"`
	SeedsFailed int      `json:"seeds_failed,omitempty"`
	SeedErrors  []string `json:"seed_errors,omitempty"`
}

// Report builds the serializable record of the result.
func (r *Result) Report() Report {
	rep := Report{
		Name:            r.Name,
		Mode:            r.Mode.String(),
		CanonicalVolume: r.CanonicalVolume,
		Modules:         r.NumModules,
		Nodes:           r.NumNodes,
		IShapeMerges:    r.IShapeMerges,
		DualComponents:  r.DualComponents,
		PlacedVolume:    r.PlacedVolume,
		Volume:          r.Volume,
		Wirelength:      r.Wirelength,
		RouteOverflow:   r.RouteOverflow,
		RouteFailed:     r.RouteFailed,
		RouteSqueezed:   r.RouteSqueezed,
		Seconds:         r.Runtime.Seconds(),
	}
	if r.Graph != nil {
		rep.DualNets = len(r.Graph.Nets)
	}
	if r.Volume > 0 {
		rep.ReductionVsCanonical = float64(r.CanonicalVolume) / float64(r.Volume)
	}
	rep.SeedsTried = r.SeedsTried
	rep.SeedsFailed = len(r.SeedErrors)
	for _, se := range r.SeedErrors {
		rep.SeedErrors = append(rep.SeedErrors, se.Error())
	}
	return rep
}

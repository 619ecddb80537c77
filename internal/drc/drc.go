// Package drc implements the design-rule checker of the compression
// pipeline: a static-analysis engine that runs a registry of named rules
// over the artifacts of every pipeline stage and emits a structured report
// with per-rule severity, stage attribution, and precise locations.
//
// The pipeline is an EDA flow (the paper frames TQEC compression as
// placement and routing), and like every EDA flow its optimizer is paired
// with a DRC: each rule encodes one invariant a stage must preserve —
// defect connectivity, primal/dual separation, placement legality, routing
// capacity, time ordering — plus cross-stage invariants no single stage
// can check on its own, such as braiding-relation preservation across the
// I-shaped simplification and bridging, and bounding-volume consistency
// between the placement and the exported geometry.
//
// Rules declare which artifacts they need via Applies; the engine runs
// every applicable rule and records skipped ones, so a report also states
// what was NOT checked. Run sweeps the rules Options selects (all by
// default); the -drc pipeline mode runs every rule once over the
// finished artifacts, and each violation names its rule's stage.
package drc

import (
	"fmt"
	"sort"
	"strings"

	"tqec/internal/bridge"
	"tqec/internal/geom"
	"tqec/internal/icm"
	"tqec/internal/pdgraph"
	"tqec/internal/place"
	"tqec/internal/route"
	"tqec/internal/simplify"
)

// Severity grades a violation.
type Severity int

// Severity levels, in increasing order.
const (
	Info Severity = iota
	Warn
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Stage identifies the pipeline stage an artifact (and the rules guarding
// it) belongs to, in pipeline order.
type Stage int

// Pipeline stages (paper Fig. 5), plus the geometry export.
const (
	StageICM Stage = iota
	StagePDGraph
	StageSimplify
	StagePrimal
	StageDual
	StagePlace
	StageRoute
	StageGeometry
	numStages
)

// Stages lists all stages in pipeline order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageICM:
		return "icm"
	case StagePDGraph:
		return "pdgraph"
	case StageSimplify:
		return "simplify"
	case StagePrimal:
		return "primal-bridge"
	case StageDual:
		return "dual-bridge"
	case StagePlace:
		return "place"
	case StageRoute:
		return "route"
	case StageGeometry:
		return "geometry"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Location pins a violation to the artifact element that breaks the rule.
// Identifier fields hold −1 when not applicable.
type Location struct {
	Module int `json:"module,omitempty"` // PD-graph module ID
	Net    int `json:"net,omitempty"`    // dual net / component ID
	Item   int `json:"item,omitempty"`   // placement item ID
	Rail   int `json:"rail,omitempty"`   // ICM rail ID
	Defect int `json:"defect,omitempty"` // geometry defect index

	// Point is a lattice coordinate; Space records its coordinate system:
	// "doubled" (geometry lattice), "unit" (paper units / placement), or
	// "cell" (routing grid).
	HasPoint bool   `json:"-"`
	Point    [3]int `json:"point,omitempty"`
	Space    string `json:"space,omitempty"`
}

// NoLoc is the empty location (whole-artifact violations).
var NoLoc = Location{Module: -1, Net: -1, Item: -1, Rail: -1, Defect: -1}

// LocNet locates a dual net or merged component.
func LocNet(id int) Location { l := NoLoc; l.Net = id; return l }

// LocItem locates a placement item.
func LocItem(id int) Location { l := NoLoc; l.Item = id; return l }

// LocRail locates an ICM rail.
func LocRail(id int) Location { l := NoLoc; l.Rail = id; return l }

// LocDefect locates a geometry defect structure.
func LocDefect(i int) Location { l := NoLoc; l.Defect = i; return l }

// At attaches a coordinate in the given space ("doubled", "unit", "cell").
func (l Location) At(space string, x, y, z int) Location {
	l.HasPoint = true
	l.Point = [3]int{x, y, z}
	l.Space = space
	return l
}

// WithItem attaches a placement-item ID.
func (l Location) WithItem(id int) Location { l.Item = id; return l }

// WithNet attaches a net ID.
func (l Location) WithNet(id int) Location { l.Net = id; return l }

// String renders the location compactly; empty for NoLoc.
func (l Location) String() string {
	var parts []string
	if l.Rail >= 0 {
		parts = append(parts, fmt.Sprintf("rail %d", l.Rail))
	}
	if l.Module >= 0 {
		parts = append(parts, fmt.Sprintf("module %d", l.Module))
	}
	if l.Net >= 0 {
		parts = append(parts, fmt.Sprintf("net %d", l.Net))
	}
	if l.Item >= 0 {
		parts = append(parts, fmt.Sprintf("item %d", l.Item))
	}
	if l.Defect >= 0 {
		parts = append(parts, fmt.Sprintf("defect %d", l.Defect))
	}
	if l.HasPoint {
		parts = append(parts, fmt.Sprintf("(%d,%d,%d)%s", l.Point[0], l.Point[1], l.Point[2], spaceSuffix(l.Space)))
	}
	return strings.Join(parts, " ")
}

func spaceSuffix(space string) string {
	switch space {
	case "", "doubled":
		return ""
	default:
		return " " + space
	}
}

// Violation is one design-rule violation.
type Violation struct {
	Rule     string   `json:"rule"`
	Stage    string   `json:"stage"`
	Severity string   `json:"severity"`
	Message  string   `json:"message"`
	Loc      Location `json:"loc"`

	sev   Severity
	stage Stage
}

// Sev returns the typed severity.
func (v Violation) Sev() Severity { return v.sev }

// PipelineStage returns the typed stage.
func (v Violation) PipelineStage() Stage { return v.stage }

// String renders "severity stage/rule: message [@ location]".
func (v Violation) String() string {
	s := fmt.Sprintf("%-5s %s/%s: %s", v.Severity, v.Stage, v.Rule, v.Message)
	if loc := v.Loc.String(); loc != "" {
		s += " [" + loc + "]"
	}
	return s
}

// Artifacts carries the outputs of every pipeline stage a rule may
// inspect. Fields are nil (or zero) for stages that have not run; rules
// declare their needs via Rule.Applies and are skipped when unmet.
type Artifacts struct {
	Name       string
	ICM        *icm.Rep
	Graph      *pdgraph.Graph
	Simplified *simplify.Result
	Primal     *bridge.PrimalResult
	Dual       *bridge.DualResult
	Placement  *place.Result
	Routing    *route.Result

	// Routing context needed to re-check the routed result: the grid with
	// its static obstacles, the nets that were routed, the placement→grid
	// cell offset, and the per-cell net capacity.
	RouteGrid     *route.Grid
	RouteNets     []route.Net
	RouteOffset   route.Cell
	RouteCapacity int

	Geometry *geom.Description
}

// Rule is one named design rule.
type Rule struct {
	// Name is the stable rule identifier (kebab-case).
	Name string
	// Stage is the pipeline stage the rule guards.
	Stage Stage
	// Severity is the default severity of the rule's violations.
	Severity Severity
	// Doc states the invariant the rule encodes, for reports and docs.
	Doc string
	// Applies reports whether the artifacts the rule needs are present.
	Applies func(*Artifacts) bool
	// Check inspects the artifacts and reports violations.
	Check func(*Artifacts, *Reporter)
}

// Reporter collects the violations of one rule run.
type Reporter struct {
	rule       *Rule
	violations []Violation
}

func (r *Reporter) emit(sev Severity, loc Location, format string, args ...any) {
	r.violations = append(r.violations, Violation{
		Rule:     r.rule.Name,
		Stage:    r.rule.Stage.String(),
		Severity: sev.String(),
		Message:  fmt.Sprintf(format, args...),
		Loc:      loc,
		sev:      sev,
		stage:    r.rule.Stage,
	})
}

// Violationf reports a violation at the rule's default severity.
func (r *Reporter) Violationf(loc Location, format string, args ...any) {
	r.emit(r.rule.Severity, loc, format, args...)
}

// Errorf reports an error-severity violation.
func (r *Reporter) Errorf(loc Location, format string, args ...any) {
	r.emit(Error, loc, format, args...)
}

// Infof reports an info-severity violation.
func (r *Reporter) Infof(loc Location, format string, args ...any) {
	r.emit(Info, loc, format, args...)
}

// registry holds the builtin rules, ordered by stage then name.
var registry []*Rule

// Register adds a rule to the registry. Builtin rules self-register;
// callers may add project-specific rules before running the engine.
// Registering a duplicate name panics: rule names are stable identifiers.
func Register(r *Rule) {
	if r.Name == "" || r.Check == nil {
		panic("drc: rule needs a name and a check")
	}
	for _, old := range registry {
		if old.Name == r.Name {
			panic("drc: duplicate rule " + r.Name)
		}
	}
	registry = append(registry, r)
	sort.SliceStable(registry, func(i, j int) bool {
		if registry[i].Stage != registry[j].Stage {
			return registry[i].Stage < registry[j].Stage
		}
		return registry[i].Name < registry[j].Name
	})
}

// Rules returns the registered rules in stage order.
func Rules() []*Rule { return append([]*Rule(nil), registry...) }

// RuleByName looks a rule up.
func RuleByName(name string) (*Rule, bool) {
	for _, r := range registry {
		if r.Name == name {
			return r, true
		}
	}
	return nil, false
}

// Options selects which rules to run.
type Options struct {
	// Rules restricts the run to the named rules (nil = all).
	Rules []string
}

func (o Options) wants(r *Rule) bool {
	if len(o.Rules) > 0 {
		ok := false
		for _, n := range o.Rules {
			if n == r.Name {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Run executes every selected, applicable rule over the artifacts.
func Run(a *Artifacts, opt Options) *Report {
	rep := &Report{Name: a.Name}
	for _, r := range registry {
		if !opt.wants(r) {
			continue
		}
		if r.Applies != nil && !r.Applies(a) {
			rep.Skipped = append(rep.Skipped, r.Name)
			continue
		}
		rr := &Reporter{rule: r}
		r.Check(a, rr)
		rep.Ran = append(rep.Ran, r.Name)
		rep.Violations = append(rep.Violations, rr.violations...)
	}
	return rep
}

package geom

import (
	"fmt"
	"sort"
	"strings"
)

// CapKind classifies how a defect strand terminates, per the components of
// geometric descriptions (paper Fig. 2).
type CapKind int

// Cap kinds for initialization/measurement (I/M) and state injection.
const (
	// CapNone marks an interior endpoint (strand continues elsewhere).
	CapNone CapKind = iota
	// CapZ is a Z-basis initialization or measurement: the defect pair is
	// closed off by joining the two strands (a closed structure).
	CapZ
	// CapX is an X-basis initialization or measurement: the strands end on
	// open cross caps (not a closed structure).
	CapX
	// CapInject marks a state-injection point (|Y⟩ or |A⟩); geometrically
	// it behaves like a Z-basis cap with an attached injection site.
	CapInject
)

// String names the cap kind.
func (c CapKind) String() string {
	switch c {
	case CapNone:
		return "none"
	case CapZ:
		return "Z"
	case CapX:
		return "X"
	case CapInject:
		return "inject"
	}
	return fmt.Sprintf("cap(%d)", int(c))
}

// Cap records a strand termination at a point.
type Cap struct {
	Kind CapKind
	At   Point
}

// Defect is one connected defect structure: a set of axis-aligned segments
// of a single kind, together with any I/M caps on its endpoints.
type Defect struct {
	Kind Kind
	Segs []Seg
	Caps []Cap
	// Label is an optional identifier used in dumps and error messages.
	Label string
}

// AddSeg appends a segment, dropping zero-length ones.
func (d *Defect) AddSeg(s Seg) {
	if s.Len() == 0 {
		return
	}
	d.Segs = append(d.Segs, s)
}

// AddPath appends all segments of a polyline.
func (d *Defect) AddPath(p Path) {
	for _, s := range p.Segs() {
		d.AddSeg(s)
	}
}

// Bounds returns the bounding box of the defect.
func (d *Defect) Bounds() Box {
	b := EmptyBox()
	for _, s := range d.Segs {
		b = b.Union(s.Bounds())
	}
	for _, c := range d.Caps {
		b = b.Expand(c.At)
	}
	return b
}

// Length returns the total strand length in doubled steps.
func (d *Defect) Length() int {
	n := 0
	for _, s := range d.Segs {
		n += s.Len()
	}
	return n
}

// Translate shifts the whole defect by delta.
func (d *Defect) Translate(delta Point) {
	for i := range d.Segs {
		d.Segs[i].A = d.Segs[i].A.Add(delta)
		d.Segs[i].B = d.Segs[i].B.Add(delta)
	}
	for i := range d.Caps {
		d.Caps[i].At = d.Caps[i].At.Add(delta)
	}
}

// Validate checks that all segments are axis-aligned and lie on the
// defect's sub-lattice.
func (d *Defect) Validate() error {
	for _, s := range d.Segs {
		if !s.Valid() {
			return fmt.Errorf("defect %q: segment %v is not axis-aligned", d.Label, s)
		}
		if !s.A.OnLattice(d.Kind) || !s.B.OnLattice(d.Kind) {
			return fmt.Errorf("defect %q: segment %v off the %s lattice", d.Label, s, d.Kind)
		}
	}
	return nil
}

// BoxKind classifies a state-distillation box.
type BoxKind int

// Distillation box types with their optimized space-time volumes from
// Fowler & Devitt: |Y⟩ = 3×3×2 = 18, |A⟩ = 16×6×2 = 192.
const (
	BoxY BoxKind = iota
	BoxA
)

// String names the box kind.
func (k BoxKind) String() string {
	if k == BoxY {
		return "|Y>"
	}
	return "|A>"
}

// Dims returns the paper-unit dimensions (#x, #y, #z) of the optimized
// distillation box.
func (k BoxKind) Dims() (nx, ny, nz int) {
	if k == BoxY {
		return 3, 3, 2
	}
	return 16, 6, 2
}

// Volume returns the paper-unit space-time volume of the box.
func (k BoxKind) Volume() int {
	nx, ny, nz := k.Dims()
	return nx * ny * nz
}

// DistillBox is a placed state-distillation circuit, reserved as an opaque
// cuboid with a single injection attach point on its +x face.
type DistillBox struct {
	Kind   BoxKind
	At     Point // min corner, on the primal lattice
	Label  string
	Output Point // injection attach point; zero value means derive from At
}

// Bounds returns the cuboid occupied by the box in doubled coordinates.
func (b DistillBox) Bounds() Box {
	nx, ny, nz := b.Kind.Dims()
	return Box{Min: b.At, Max: b.At.Add(Pt(nx*Unit, ny*Unit, nz*Unit))}
}

// Attach returns the injection attach point: the centre of the +x face
// unless Output was set explicitly.
func (b DistillBox) Attach() Point {
	if (b.Output != Point{}) {
		return b.Output
	}
	nx, ny, nz := b.Kind.Dims()
	return b.At.Add(Pt(nx*Unit, ny*Unit/2, nz*Unit/2))
}

// Description is a complete 3-D geometric description: defect structures,
// distillation boxes, and the derived space-time extent.
type Description struct {
	Defects []Defect
	Boxes   []DistillBox
}

// Add appends a defect and returns its index.
func (g *Description) Add(d Defect) int {
	g.Defects = append(g.Defects, d)
	return len(g.Defects) - 1
}

// AddBox appends a distillation box and returns its index.
func (g *Description) AddBox(b DistillBox) int {
	g.Boxes = append(g.Boxes, b)
	return len(g.Boxes) - 1
}

// Bounds returns the bounding box of everything in the description.
func (g *Description) Bounds() Box {
	b := EmptyBox()
	for i := range g.Defects {
		b = b.Union(g.Defects[i].Bounds())
	}
	for _, box := range g.Boxes {
		b = b.Union(box.Bounds())
	}
	return b
}

// Volume returns the space-time volume of the description in paper units.
func (g *Description) Volume() int { return g.Bounds().Volume() }

// UnitDims returns the (#x, #y, #z) cell counts of the description.
func (g *Description) UnitDims() (nx, ny, nz int) { return g.Bounds().UnitDims() }

// Translate shifts the entire description by delta.
func (g *Description) Translate(delta Point) {
	for i := range g.Defects {
		g.Defects[i].Translate(delta)
	}
	for i := range g.Boxes {
		g.Boxes[i].At = g.Boxes[i].At.Add(delta)
		if (g.Boxes[i].Output != Point{}) {
			g.Boxes[i].Output = g.Boxes[i].Output.Add(delta)
		}
	}
}

// SeparationError describes a violation of the one-unit separation rule.
type SeparationError struct {
	Kind   Kind
	I, J   int // defect indices
	SegI   Seg
	SegJ   Seg
	Dist   int // doubled steps
	Needed int
}

// Error implements the error interface.
func (e *SeparationError) Error() string {
	return fmt.Sprintf("%s defects %d and %d too close: %v vs %v at distance %d (< %d doubled steps)",
		e.Kind, e.I, e.J, e.SegI, e.SegJ, e.Dist, e.Needed)
}

// CheckSeparation verifies that disjoint same-kind defect structures keep
// at least one paper unit (Unit doubled steps) of clearance, the paper's
// error-rate constraint. Segments within the same defect are exempt.
func (g *Description) CheckSeparation() error {
	for i := 0; i < len(g.Defects); i++ {
		for j := i + 1; j < len(g.Defects); j++ {
			if g.Defects[i].Kind != g.Defects[j].Kind {
				continue
			}
			if err := checkPair(&g.Defects[i], &g.Defects[j], i, j); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkPair(a, b *Defect, i, j int) error {
	ba, bb := a.Bounds(), b.Bounds()
	if !ba.Inflate(Unit).Overlaps(bb) {
		return nil
	}
	for _, sa := range a.Segs {
		for _, sb := range b.Segs {
			if d := Dist(sa, sb); d < Unit {
				return &SeparationError{Kind: a.Kind, I: i, J: j, SegI: sa, SegJ: sb, Dist: d, Needed: Unit}
			}
		}
	}
	return nil
}

// Validate runs per-defect validation and the separation check.
func (g *Description) Validate() error {
	for i := range g.Defects {
		if err := g.Defects[i].Validate(); err != nil {
			return fmt.Errorf("defect %d: %w", i, err)
		}
	}
	return g.CheckSeparation()
}

// Stats summarizes a description for reports.
type Stats struct {
	NumPrimal, NumDual int
	NumBoxes           int
	TotalLength        int // doubled steps
	NX, NY, NZ         int
	Volume             int
}

// Summary computes the statistics of the description.
func (g *Description) Summary() Stats {
	var st Stats
	for i := range g.Defects {
		if g.Defects[i].Kind == Primal {
			st.NumPrimal++
		} else {
			st.NumDual++
		}
		st.TotalLength += g.Defects[i].Length()
	}
	st.NumBoxes = len(g.Boxes)
	st.NX, st.NY, st.NZ = g.UnitDims()
	st.Volume = st.NX * st.NY * st.NZ
	return st
}

// String renders a short human-readable summary.
func (g *Description) String() string {
	st := g.Summary()
	return fmt.Sprintf("description{primal:%d dual:%d boxes:%d vol:%d (%d×%d×%d)}",
		st.NumPrimal, st.NumDual, st.NumBoxes, st.Volume, st.NX, st.NY, st.NZ)
}

// DumpLayers renders an ASCII art cross-section per z-layer (paper units),
// projecting primal defects as '#', dual defects as 'o', and boxes by their
// kind letter. Intended for small examples and tqecc -viz.
func (g *Description) DumpLayers() string {
	b := g.Bounds()
	if b.Empty() {
		return "(empty description)\n"
	}
	type cell struct{ r byte }
	nx := b.Span(X) + 1
	ny := b.Span(Y) + 1
	var sb strings.Builder
	zs := map[int]bool{}
	mark := func(z int) { zs[z] = true }
	for _, d := range g.Defects {
		for _, s := range d.Segs {
			lo, hi := interval(s, Z)
			for z := lo; z <= hi; z++ {
				mark(z)
			}
		}
	}
	for _, bx := range g.Boxes {
		bb := bx.Bounds()
		for z := bb.Min.Z; z <= bb.Max.Z; z++ {
			mark(z)
		}
	}
	var zlist []int
	for z := range zs {
		zlist = append(zlist, z)
	}
	sort.Ints(zlist)
	for _, z := range zlist {
		grid := make([][]cell, ny)
		for i := range grid {
			grid[i] = make([]cell, nx)
			for j := range grid[i] {
				grid[i][j].r = '.'
			}
		}
		plot := func(p Point, r byte) {
			x := p.X - b.Min.X
			y := p.Y - b.Min.Y
			if x >= 0 && x < nx && y >= 0 && y < ny {
				grid[y][x].r = r
			}
		}
		for _, d := range g.Defects {
			r := byte('#')
			if d.Kind == Dual {
				r = 'o'
			}
			for _, s := range d.Segs {
				zlo, zhi := interval(s, Z)
				if z < zlo || z > zhi {
					continue
				}
				for _, p := range s.Points(1) {
					plot(p.With(Z, z), r)
				}
			}
		}
		for _, bx := range g.Boxes {
			bb := bx.Bounds()
			if z < bb.Min.Z || z > bb.Max.Z {
				continue
			}
			r := byte('Y')
			if bx.Kind == BoxA {
				r = 'A'
			}
			for y := bb.Min.Y; y <= bb.Max.Y; y++ {
				for x := bb.Min.X; x <= bb.Max.X; x++ {
					plot(Pt(x, y, z), r)
				}
			}
		}
		fmt.Fprintf(&sb, "z=%d\n", z)
		for y := ny - 1; y >= 0; y-- {
			for x := 0; x < nx; x++ {
				sb.WriteByte(grid[y][x].r)
			}
			sb.WriteByte('\n')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

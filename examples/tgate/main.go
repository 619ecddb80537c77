// T-gate measurement ordering (paper Figs. 3–4): expanding T gates into
// the ICM form introduces first-order and second-order measurements whose
// relative time order is a hard constraint — within one gadget (intra-T)
// and between successive gadgets on the same qubit (inter-T). This example
// shows the constraint structure and verifies that the compiled
// schedule respects it.
package main

import (
	"fmt"
	"log"

	"tqec"
)

func main() {
	// Two T gates on the same qubit: the paper's Fig. 4 scenario.
	c := tqec.NewCircuit("double-t", 2)
	c.AppendNew(tqec.T, 0)
	c.AppendNew(tqec.CNOT, 1, 0)
	c.AppendNew(tqec.T, 0)

	rep, err := tqec.BuildICM(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ICM:", rep)
	fmt.Printf("gadgets: %d, ordering constraints: %d\n", len(rep.Gadgets), len(rep.Constraints))
	for _, g := range rep.Gadgets {
		fmt.Printf("  gadget %d on q%d: first-order rail %d, second-order rails %v\n",
			g.ID, g.Logical, g.First, g.Second)
	}
	intra, inter := 0, 0
	for _, cst := range rep.Constraints {
		switch cst.Kind {
		case "intra":
			intra++
		case "inter":
			inter++
		}
	}
	fmt.Printf("intra-T constraints: %d (first before each of 4 second-order)\n", intra)
	fmt.Printf("inter-T constraints: %d (4×4 between successive gadgets)\n", inter)

	// A valid measurement schedule exists (the constraint DAG is acyclic).
	order, err := rep.TopoOrder()
	if err != nil {
		log.Fatal(err)
	}
	pos := make(map[int]int, len(order))
	for i, r := range order {
		pos[r] = i
	}
	if err := rep.CheckOrder(func(r int) int { return pos[r] }); err != nil {
		log.Fatal(err)
	}
	fmt.Println("topological measurement schedule verified ✓")

	// Compile and confirm the final schedule, after compaction and
	// legalization have moved items, inverts no ordering constraint.
	res, err := tqec.Compile(c, tqec.Options{Mode: tqec.Full, Effort: tqec.EffortNormal, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	// NOTE: on a two-T toy the distillation boxes dominate both forms, so
	// the compressed volume is not the point here — the ordering is.
	audit := res.Placement.AuditSchedule()
	fmt.Printf("compiled: volume %d (canonical %d), %v\n", res.Volume, res.CanonicalVolume, audit)
	if !audit.Satisfied() {
		log.Fatalf("final schedule inverts %d measurement-ordering constraints", len(audit.Inverted))
	}
	fmt.Println("compiled measurement schedule verified ✓")
}

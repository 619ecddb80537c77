package geom

import "testing"

// FuzzValidate feeds arbitrary segment soups through the description
// validators: whatever a broken exporter emits, Validate and
// CheckSeparation must reject it with an error, never a panic.
//
// The corpus bytes decode as 7-byte records (kind, ax, ay, az, bx, by, bz)
// appended round-robin to a handful of defects.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 4, 0, 0})                      // one primal strand
	f.Add([]byte{1, 1, 1, 1, 1, 5, 1})                      // one dual strand
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3, 1, 7, 7, 7, 7, 7, 7}) // skew + degenerate
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 2, 0, 2}) // close primal pair
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Description
		const numDefects = 3
		for i := 0; i+7 <= len(data) && i < 7*64; i += 7 {
			rec := data[i : i+7]
			kind := Primal
			if rec[0]&1 == 1 {
				kind = Dual
			}
			di := int(rec[0]) % numDefects
			for len(g.Defects) <= di {
				g.Defects = append(g.Defects, Defect{Label: "fuzz"})
			}
			d := &g.Defects[di]
			if len(d.Segs) == 0 {
				d.Kind = kind
			}
			// Small coordinates keep the pairwise distance checks cheap
			// while still hitting every parity and overlap case.
			d.Segs = append(d.Segs, Seg{
				A: Pt(int(rec[1])%16, int(rec[2])%16, int(rec[3])%16),
				B: Pt(int(rec[4])%16, int(rec[5])%16, int(rec[6])%16),
			})
		}

		err := g.Validate()
		sep := g.CheckSeparation()
		if err == nil && sep != nil {
			t.Fatalf("Validate passed but CheckSeparation failed: %v", sep)
		}
		for i := range g.Defects {
			d := &g.Defects[i]
			d.Bounds()
			if verr := d.Validate(); verr == nil {
				// A per-defect valid structure must survive a translate
				// and stay valid: the lattice parity is translation
				// invariant in steps of 2.
				d.Translate(Pt(2, 2, 2))
				if verr := d.Validate(); verr != nil {
					t.Fatalf("translation broke a valid defect: %v", verr)
				}
			}
		}
		g.Summary()
	})
}

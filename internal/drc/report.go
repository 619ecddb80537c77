package drc

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Report is the structured outcome of a DRC run.
type Report struct {
	// Name identifies the checked design (circuit name).
	Name string `json:"name,omitempty"`
	// Violations lists every violation found, in stage order.
	Violations []Violation `json:"violations"`
	// Ran lists the rules that executed.
	Ran []string `json:"ran"`
	// Skipped lists the rules whose required artifacts were absent.
	Skipped []string `json:"skipped,omitempty"`
}

// Count returns the number of violations at the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, v := range r.Violations {
		if v.sev == sev {
			n++
		}
	}
	return n
}

// Errors returns the number of error-severity violations.
func (r *Report) Errors() int { return r.Count(Error) }

// Warnings returns the number of warn-severity violations.
func (r *Report) Warnings() int { return r.Count(Warn) }

// Clean reports whether no error-severity violation was found.
func (r *Report) Clean() bool { return r.Errors() == 0 }

// ByRule returns the violations of one rule.
func (r *Report) ByRule(name string) []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Rule == name {
			out = append(out, v)
		}
	}
	return out
}

// Rules returns the distinct rule names with violations, sorted.
func (r *Report) Rules() []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range r.Violations {
		if !seen[v.Rule] {
			seen[v.Rule] = true
			out = append(out, v.Rule)
		}
	}
	sort.Strings(out)
	return out
}

// Summary renders the one-line verdict.
func (r *Report) Summary() string {
	name := r.Name
	if name == "" {
		name = "design"
	}
	return fmt.Sprintf("drc %s: %d rules ran, %d skipped, %d errors, %d warnings, %d infos",
		name, len(r.Ran), len(r.Skipped), r.Errors(), r.Warnings(), r.Count(Info))
}

// String renders the full report: the summary line, then every violation
// grouped in stage order.
func (r *Report) String() string {
	var sb strings.Builder
	sb.WriteString(r.Summary())
	sb.WriteByte('\n')
	vs := append([]Violation(nil), r.Violations...)
	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].stage != vs[j].stage {
			return vs[i].stage < vs[j].stage
		}
		if vs[i].sev != vs[j].sev {
			return vs[i].sev > vs[j].sev
		}
		return vs[i].Rule < vs[j].Rule
	})
	for _, v := range vs {
		sb.WriteString("  ")
		sb.WriteString(v.String())
		sb.WriteByte('\n')
	}
	if len(r.Skipped) > 0 {
		fmt.Fprintf(&sb, "  skipped: %s\n", strings.Join(r.Skipped, ", "))
	}
	return sb.String()
}

// WriteJSON serializes the report for machine consumption. Empty lists
// serialize as [] rather than null: consumers index them unconditionally.
func (r *Report) WriteJSON(w io.Writer) error {
	out := *r
	if out.Violations == nil {
		out.Violations = []Violation{}
	}
	if out.Ran == nil {
		out.Ran = []string{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

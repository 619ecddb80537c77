package place

import "tqec/internal/anneal"

// NewProblem exposes the annealing state to the external tests.
func NewProblem(in *Input) anneal.Problem { return newProblem(in) }

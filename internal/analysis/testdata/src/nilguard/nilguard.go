// Package nilguard is a tqec-vet fixture: exported pointer-receiver
// methods on the target types (Tracer, Span — configured by the test)
// must begin with a nil-receiver guard of their own.
package nilguard

// Tracer mimics the obs.Tracer nil-fast-path contract.
type Tracer struct{ n int }

// Span mimics obs.Span.
type Span struct{ n int }

// Guarded begins with the canonical guard.
func (t *Tracer) Guarded() {
	if t == nil {
		return
	}
	t.n++
}

// GuardedFlipped spells the condition nil == t.
func (t *Tracer) GuardedFlipped() {
	if nil == t {
		return
	}
	t.n++
}

// Forwards delegates to a guarded method, but the guard must be its own.
func (t *Tracer) Forwards() { // want "nil-receiver guard"
	t.Guarded()
}

// ForwardsReturn delegates via a single-result return; same rule.
func (t *Tracer) ForwardsReturn() int { // want "nil-receiver guard"
	return t.value()
}

func (t *Tracer) value() int {
	if t == nil {
		return 0
	}
	return t.n
}

func (t *Tracer) Unguarded() { // want "nil-receiver guard"
	t.n++
}

func (t *Tracer) GuardNoReturn() { // want "nil-receiver guard"
	if t == nil {
		t.n = 0 // no return: the nil path falls through
	}
	t.n++
}

func (t *Tracer) CycleA() { // want "nil-receiver guard"
	t.CycleB()
}

func (t *Tracer) CycleB() { // want "nil-receiver guard"
	t.CycleA()
}

// unexported methods are the guard implementations themselves; not
// required to re-guard.
func (t *Tracer) helper() { t.n++ }

// Value receivers cannot be nil; exempt.
func (s Span) ByValue() int { return s.n }

func (s *Span) End() { // want "nil-receiver guard"
	s.n++
}

// Other is not a target type; exempt.
type Other struct{ n int }

func (o *Other) Touch() { o.n++ }

package main

import (
	"testing"
	"time"

	"tqec/internal/obs"
)

func span(name string, t0 time.Time, from, to int, children ...*obs.Span) *obs.Span {
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	return &obs.Span{Name: name, StartTime: ms(from), EndTime: ms(to), Children: children}
}

func TestSpanSumsSelfTime(t *testing.T) {
	t0 := time.Now()
	// place [0,100] holds two overlapping epochs [10,40] and [30,60] and a
	// child that runs past its parent's end.
	root := span("bench", t0, 0, 200,
		span("place", t0, 0, 100,
			span("anneal-epoch", t0, 10, 40),
			span("anneal-epoch", t0, 30, 60),
			span("legalize", t0, 90, 120),
		),
		span("route", t0, 100, 150),
	)
	got := spanSums(root)
	if got.spans != 5 {
		t.Errorf("spans = %d, want 5 below the root", got.spans)
	}
	if want := 60 * time.Millisecond; got.total["anneal-epoch"] != want {
		t.Errorf("anneal-epoch total = %v, want %v", got.total["anneal-epoch"], want)
	}
	// Covered: [10,60] and [90,100] = 60 ms of place's 100 ms.
	if want := 40 * time.Millisecond; got.self["place"] != want {
		t.Errorf("place self = %v, want %v", got.self["place"], want)
	}
	if want := 50 * time.Millisecond; got.self["route"] != want {
		t.Errorf("route self = %v, want %v", got.self["route"], want)
	}
}

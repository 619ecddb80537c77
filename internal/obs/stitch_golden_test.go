package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// stitchHost is a coordinator-shaped tree: a fleet root with a routing
// decision and one dispatch attempt.
func stitchHost() *SpanJSON {
	return &SpanJSON{
		Name: "fleet:f000001", StartUS: 0, DurUS: 1000,
		Process: "coordinator",
		Children: []*SpanJSON{
			{Name: "route-decision", StartUS: 0, DurUS: 50},
			{Name: "dispatch", StartUS: 50, DurUS: 900, Attrs: map[string]any{"worker": "w1"}},
		},
	}
}

// stitchGuest is a worker-shaped tree, start_us relative to its own
// root, with one overlapping seed pair to exercise per-process lane
// allocation.
func stitchGuest() *SpanJSON {
	return &SpanJSON{
		Name: "job:j000001", StartUS: 0, DurUS: 800,
		Process: "w1",
		Children: []*SpanJSON{
			{Name: "compile", StartUS: 0, DurUS: 800, Children: []*SpanJSON{
				{Name: "anneal", StartUS: 100, DurUS: 300},
				{Name: "seed-1", StartUS: 150, DurUS: 300}, // overlaps anneal → new lane
			}},
		},
	}
}

// TestGraftRebasesAndAnchors pins the stitching math: the guest root is
// anchored offset after the dispatch span's start (base_us =
// dispatch.start_us + offset), every guest start shifts by base_us, and
// base_us is recorded on the grafted root.
func TestGraftRebasesAndAnchors(t *testing.T) {
	host, guest := stitchHost(), stitchGuest()
	if !Graft(host, "dispatch", guest, 70*time.Microsecond) {
		t.Fatal("Graft failed on well-formed trees")
	}
	dispatch := host.Children[1]
	if len(dispatch.Children) != 1 || dispatch.Children[0] != guest {
		t.Fatal("guest not grafted under dispatch")
	}
	if guest.StartUS != 120 { // 50 + 70
		t.Fatalf("guest root start = %d, want 120", guest.StartUS)
	}
	if got := guest.Children[0].Children[0].StartUS; got != 220 {
		t.Fatalf("nested guest span start = %d, want 220", got)
	}
	if len(guest.Attrs) != 1 || guest.Attrs["stitch_base_us"] != int64(120) {
		t.Fatalf("stitch attrs = %v, want only stitch_base_us 120", guest.Attrs)
	}
}

// TestGraftClampsToCausality: a negative offset cannot push the guest
// before the dispatch hop that created it — the base clamps to the
// dispatch span's start.
func TestGraftClampsToCausality(t *testing.T) {
	host, guest := stitchHost(), stitchGuest()
	if !Graft(host, "dispatch", guest, -time.Second) {
		t.Fatal("Graft failed")
	}
	if guest.StartUS != 50 { // clamped to dispatch.StartUS
		t.Fatalf("guest root start = %d, want 50 (clamped)", guest.StartUS)
	}
	if guest.Attrs["stitch_base_us"] != int64(50) {
		t.Fatalf("stitch_base_us = %v, want 50", guest.Attrs["stitch_base_us"])
	}
}

// TestGraftUnderLastDispatch: with retried attempts the host holds
// several dispatch spans; the guest belongs to the final one, placed
// relative to that span's start.
func TestGraftUnderLastDispatch(t *testing.T) {
	host := stitchHost()
	second := &SpanJSON{Name: "dispatch", StartUS: 960, DurUS: 30}
	host.Children = append(host.Children, second)
	guest := stitchGuest()
	if !Graft(host, "dispatch", guest, 0) {
		t.Fatal("Graft failed")
	}
	if len(host.Children[1].Children) != 0 {
		t.Fatal("guest grafted under the first dispatch attempt")
	}
	if len(second.Children) != 1 {
		t.Fatal("guest not grafted under the last dispatch attempt")
	}
	if guest.StartUS != 960 {
		t.Fatalf("guest root start = %d, want 960 (the last dispatch's start)", guest.StartUS)
	}
}

func TestGraftRefusals(t *testing.T) {
	if Graft(nil, "dispatch", stitchGuest(), 0) {
		t.Fatal("grafted into nil host")
	}
	if Graft(stitchHost(), "dispatch", nil, 0) {
		t.Fatal("grafted nil guest")
	}
	if Graft(stitchHost(), "no-such-span", stitchGuest(), 0) {
		t.Fatal("grafted under a missing span name")
	}
}

// TestChromeTraceTreeGolden pins the exact multi-process Chrome export
// of the stitched tree: one pid lane per process announced by a
// process_name metadata event, per-pid tid allocation, and the stitch
// base surfaced as an arg. Any format change must update this
// deliberately.
func TestChromeTraceTreeGolden(t *testing.T) {
	host := stitchHost()
	if !Graft(host, "dispatch", stitchGuest(), 70*time.Microsecond) {
		t.Fatal("Graft failed")
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceTree(&buf, host); err != nil {
		t.Fatal(err)
	}
	want := `[{"name":"process_name","ph":"M","ts":0,"dur":0,"pid":0,"tid":0,"args":{"name":"coordinator"}},` +
		`{"name":"fleet:f000001","ph":"X","ts":0,"dur":1000,"pid":0,"tid":0},` +
		`{"name":"route-decision","ph":"X","ts":0,"dur":50,"pid":0,"tid":0},` +
		`{"name":"dispatch","ph":"X","ts":50,"dur":900,"pid":0,"tid":0,"args":{"worker":"w1"}},` +
		`{"name":"process_name","ph":"M","ts":0,"dur":0,"pid":1,"tid":0,"args":{"name":"w1"}},` +
		`{"name":"job:j000001","ph":"X","ts":120,"dur":800,"pid":1,"tid":0,"args":{"stitch_base_us":120}},` +
		`{"name":"compile","ph":"X","ts":120,"dur":800,"pid":1,"tid":0},` +
		`{"name":"anneal","ph":"X","ts":220,"dur":300,"pid":1,"tid":0},` +
		`{"name":"seed-1","ph":"X","ts":270,"dur":300,"pid":1,"tid":1}]` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("stitched chrome trace drifted from golden:\ngot:  %s\nwant: %s", got, want)
	}

	// Structural invariants: valid JSON, per-(pid,tid) lane timestamps
	// monotonic, exactly two process lanes.
	var events []ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	type lane struct{ pid, tid int }
	lastPerLane := map[lane]int64{}
	processes := map[int]bool{}
	for i, ev := range events {
		if ev.Ph == "M" {
			processes[ev.PID] = true
			continue
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("event %d (%s) has negative time", i, ev.Name)
		}
		l := lane{ev.PID, ev.TID}
		if last, ok := lastPerLane[l]; ok && ev.TS < last {
			t.Fatalf("event %d (%s) starts at %d before lane %v's previous start %d", i, ev.Name, ev.TS, l, last)
		}
		lastPerLane[l] = ev.TS
	}
	if len(processes) != 2 {
		t.Fatalf("got %d process lanes, want 2", len(processes))
	}
}

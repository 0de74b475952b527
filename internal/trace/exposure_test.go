package trace

import (
	"math"
	"testing"
)

// materializeLoop flattens a LongLoop's phases into one Piecewise so
// the lazy exposure methods can be property-tested against the exact
// segment walk.
func materializeLoop(t *testing.T, phases ...LoopPhase) *Piecewise {
	t.Helper()
	var flat []*Piecewise
	for _, ph := range phases {
		for i := int64(0); i < ph.Reps; i++ {
			flat = append(flat, ph.Inner)
		}
	}
	return concat(t, flat...)
}

func TestLongLoopExposureMatchesMaterialized(t *testing.T) {
	inner1, err := BusyIdle(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner2, err := NewPiecewise([]Segment{
		{Start: 0, End: 1, Vuln: 0.25},
		{Start: 1, End: 2, Vuln: 0},
		{Start: 2, End: 4, Vuln: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	phases := []LoopPhase{{Inner: inner1, Reps: 4}, {Inner: inner2, Reps: 3}}
	ll, err := NewLongLoop(phases...)
	if err != nil {
		t.Fatal(err)
	}
	mat := materializeLoop(t, phases...)

	if math.Abs(ll.TotalExposure()-mat.TotalExposure()) > 1e-12 {
		t.Errorf("TotalExposure: lazy %v vs materialized %v", ll.TotalExposure(), mat.TotalExposure())
	}
	for x := 0.0; x <= ll.Period(); x += 0.0625 {
		if got, want := ll.Exposure(x), mat.Exposure(x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Exposure(%v): lazy %v vs materialized %v", x, got, want)
		}
	}
	total := ll.TotalExposure()
	for q := 0.0; q <= 1.0; q += 1.0 / 128 {
		e := q * total
		if got, want := ll.InvertExposure(e), mat.InvertExposure(e); math.Abs(got-want) > 1e-9 {
			t.Fatalf("InvertExposure(%v): lazy %v vs materialized %v", e, got, want)
		}
	}
	// Out-of-range targets clamp like Piecewise.
	if got := ll.InvertExposure(-1); got != mat.InvertExposure(-1) {
		t.Errorf("InvertExposure(-1) = %v, want %v", got, mat.InvertExposure(-1))
	}
	if got := ll.InvertExposure(total + 1); got != ll.Period() {
		t.Errorf("InvertExposure(total+1) = %v, want period %v", got, ll.Period())
	}
}

func TestLongLoopInvertExposureSkipsIdlePhases(t *testing.T) {
	busy, err := BusyIdle(2, 2) // always vulnerable
	if err != nil {
		t.Fatal(err)
	}
	idle, err := NewPiecewise([]Segment{{Start: 0, End: 2, Vuln: 0}})
	if err != nil {
		t.Fatal(err)
	}
	ll, err := NewLongLoop(
		LoopPhase{Inner: busy, Reps: 1},
		LoopPhase{Inner: idle, Reps: 5},
		LoopPhase{Inner: busy, Reps: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Exposure 2 is reached exactly at the end of the first busy phase;
	// the inverse must jump across the idle phase to t = 12.
	if got := ll.InvertExposure(2); math.Abs(got-12) > 1e-12 {
		t.Errorf("InvertExposure(2) = %v, want 12 (start of next vulnerable phase)", got)
	}
	// Round trip inside the second busy phase.
	if got := ll.Exposure(13); math.Abs(got-3) > 1e-12 {
		t.Errorf("Exposure(13) = %v, want 3", got)
	}
}

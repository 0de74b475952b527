package main

import (
	"cmp"
	"slices"
	"time"
)

// span is one timed call at a layer boundary. Spans stay in memory and
// are reduced when the run ends.
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
	parent     int32 // index of the causing span, -1 for a root
	req        int32 // request the span belongs to
}

// recorder collects spans; one recorder serves one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time, capHint int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capHint)}
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent, req int32) int32 {
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.epoch)), parent: parent, req: req})
	return int32(len(r.spans) - 1)
}

// end closes a span.
func (r *recorder) end(i int32) { r.spans[i].end = int64(time.Since(r.epoch)) }

// add records an already-timed span.
func (r *recorder) add(s span) int32 {
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.end - s.start) - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, spans []span, kids []int32) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].start, p.start), min(spans[k].end, p.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName groups self times (in microseconds) by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.name] = append(out[s.name], float64(self[i])/1e3)
	}
	return out
}

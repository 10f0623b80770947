package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (-1 for a root); Req groups the spans of one request or
// operation. Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Traced replays are
// serial, so it takes no lock; it is not safe for concurrent use. A nil
// *recorder records nothing, which is how the untraced passes run the
// same replay code.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans), Parent: parent, Req: req,
		Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
}

// tag labels span id; layer totals are kept per name and per name.tag.
func (r *recorder) tag(id int, tag string) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].Tag = tag
}

// duration returns span id's wall time.
func (r *recorder) duration(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once; a child sticking out of its parent is clipped).
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerStat totals the calls and self time of one span name.
type layerStat struct {
	calls int
	self  time.Duration
}

// meanMS returns the mean self time per call in ms (0 with no calls).
func (l layerStat) meanMS() float64 {
	if l.calls == 0 {
		return 0
	}
	return ms(l.self) / float64(l.calls)
}

// layers aggregates self time by span name, and by name.tag for tagged
// spans.
func (r *recorder) layers() map[string]layerStat {
	out := map[string]layerStat{}
	if r == nil {
		return out
	}
	for i, d := range selfTimes(r.spans) {
		s := r.spans[i]
		keys := []string{s.Name}
		if s.Tag != "" {
			keys = append(keys, s.Name+"."+s.Tag)
		}
		for _, k := range keys {
			st := out[k]
			st.calls++
			st.self += d
			out[k] = st
		}
	}
	return out
}

// selfSince sums the self time of the spans with the given names among
// those recorded from index first on.
func (r *recorder) selfSince(first int, names ...string) time.Duration {
	var sum time.Duration
	self := selfTimes(r.spans)
	for i := first; i < len(r.spans); i++ {
		for _, n := range names {
			if r.spans[i].Name == n {
				sum += self[i]
			}
		}
	}
	return sum
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

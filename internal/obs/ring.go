package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// Kind classifies a structured run event.
type Kind string

// Event kinds emitted by the simulator. Lifecycle events frame a run;
// fault.* and cache.* events explain degraded-mode behavior.
const (
	EvRunStart      Kind = "run.start"
	EvRunEnd        Kind = "run.end"
	EvNestStart     Kind = "nest.start"
	EvFailover      Kind = "fault.failover"
	EvTimeout       Kind = "fault.timeout"
	EvReconstruct   Kind = "fault.reconstruct"
	EvEvictionStorm Kind = "cache.eviction-storm"
)

// Event is one structured run event. TimeUS is the simulator's virtual
// clock (µs); Node, Thread and File are -1 when not applicable, so a zero
// id is never ambiguous in exports. Seq is stamped by the ring.
type Event struct {
	Seq    int64  `json:"seq"`
	TimeUS int64  `json:"time_us"`
	Kind   Kind   `json:"kind"`
	Node   int    `json:"node"`
	Thread int    `json:"thread"`
	File   int32  `json:"file"`
	Detail string `json:"detail,omitempty"`
}

// Ring is a bounded event sink: the most recent capacity events are kept,
// older ones are dropped (counted, never silently). Appending never
// allocates once the buffer has grown to capacity.
type Ring struct {
	buf   []Event
	cap   int
	total int64
}

// DefaultRingCapacity bounds the event buffer of a metrics observer:
// lifecycle events are per-nest and degraded-mode events are per-incident,
// so 4096 comfortably holds a full run while bounding a fault storm.
const DefaultRingCapacity = 4096

// NewRing returns an empty ring holding at most capacity events
// (capacity < 1 falls back to DefaultRingCapacity).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = DefaultRingCapacity
	}
	return &Ring{cap: capacity}
}

// Append stamps e.Seq with the running event number and stores it,
// dropping the oldest event when full.
func (r *Ring) Append(e Event) {
	e.Seq = r.total
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.total%int64(r.cap)] = e
	}
	r.total++
}

// Len returns the number of retained events.
func (r *Ring) Len() int { return len(r.buf) }

// Total returns the number of events ever appended.
func (r *Ring) Total() int64 { return r.total }

// Dropped returns how many events were displaced by capacity pressure.
func (r *Ring) Dropped() int64 { return r.total - int64(len(r.buf)) }

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if r.total > int64(len(r.buf)) {
		start := int(r.total % int64(r.cap))
		out = append(out, r.buf[start:]...)
		out = append(out, r.buf[:start]...)
		return out
	}
	return append(out, r.buf...)
}

// WriteEventsJSONL writes the given events as JSONL, one JSON object per
// line. The encoding is deterministic (fixed field order), so identical
// runs export byte-identical streams — the property the golden-file test
// pins down.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

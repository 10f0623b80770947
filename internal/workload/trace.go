package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// TraceVersion is the trace record schema version this build reads and
// writes. A reader rejects records from a different version rather than
// guessing at their fields.
const TraceVersion = 1

// Record is one accepted request as written to a trace file. Records
// capture the workload-level request identity — kind, program, client
// and SLO class — not the raw HTTP body: layout IDs are content
// addressed, so replaying the same program on any node reproduces the
// same layout, which is what lets one trace replay through both the
// live service and the offline harness.
type Record struct {
	V       int    `json:"v"`
	Seq     int64  `json:"seq"`
	TimeUS  int64  `json:"t_us"`
	Kind    string `json:"kind"`
	Client  string `json:"client,omitempty"`
	SLO     string `json:"slo"`
	Program string `json:"program"`
}

// TraceWriter appends trace records to a file using the journal
// discipline from internal/service/persist.go: every record is one
// complete JSON line issued as a single write(2), so a crash can only
// tear the final line — which ReadTrace tolerates.
type TraceWriter struct {
	mu    sync.Mutex
	f     *os.File
	seq   int64
	start time.Time
}

// NewTraceWriter opens (truncating) a trace file at path.
func NewTraceWriter(path string) (*TraceWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("workload: open trace: %w", err)
	}
	return &TraceWriter{f: f, start: time.Now()}, nil
}

// Append records one accepted request. Seq and TimeUS (µs since the
// writer opened) are stamped here, under the lock, so the trace's
// sequence numbers reflect the service's accept order.
func (w *TraceWriter) Append(kind, client, slo, program string) error {
	if slo == "" {
		slo = "default"
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	rec := Record{
		V:       TraceVersion,
		Seq:     w.seq,
		TimeUS:  time.Since(w.start).Microseconds(),
		Kind:    kind,
		Client:  client,
		SLO:     slo,
		Program: program,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("workload: trace encode: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("workload: trace write: %w", err)
	}
	w.seq++
	return nil
}

// Count returns the number of records appended so far.
func (w *TraceWriter) Count() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Close flushes and closes the trace file.
func (w *TraceWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// ReadTrace decodes a trace stream. A torn final line (no trailing
// newline, or invalid JSON) is skipped — the crash-tolerance contract —
// but an invalid line in the middle of the stream is corruption and an
// error, as is any record with the wrong schema version or an empty
// program/kind.
func ReadTrace(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var recs []Record
	lineNo := 0
	for {
		line, err := br.ReadBytes('\n')
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			return nil, fmt.Errorf("workload: read trace: %w", err)
		}
		lineNo++
		torn := atEOF && len(line) > 0 // no trailing newline: candidate torn tail
		if len(bytes.TrimSpace(line)) > 0 {
			var rec Record
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				if torn {
					return recs, nil
				}
				return nil, fmt.Errorf("workload: trace line %d: %w", lineNo, jerr)
			}
			if rec.V != TraceVersion {
				return nil, fmt.Errorf("workload: trace line %d: version %d unsupported (this build reads v%d)",
					lineNo, rec.V, TraceVersion)
			}
			if rec.Program == "" || rec.Kind == "" {
				return nil, fmt.Errorf("workload: trace line %d: missing program or kind", lineNo)
			}
			recs = append(recs, rec)
		}
		if atEOF {
			return recs, nil
		}
	}
}

// ReadTraceFile reads and decodes a trace file.
func ReadTraceFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	recs, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	return recs, nil
}

// Events converts trace records into the event stream the load
// generator and exp.WorkloadSweep consume, re-sequencing from 0 so a
// trace slice replays cleanly.
func Events(recs []Record) []Event {
	evs := make([]Event, len(recs))
	for i, r := range recs {
		slo := r.SLO
		if slo == "" {
			slo = "default"
		}
		evs[i] = Event{
			Seq:     int64(i),
			TimeUS:  r.TimeUS,
			Client:  r.Client,
			SLO:     slo,
			Kind:    r.Kind,
			Program: r.Program,
		}
	}
	return evs
}

// LoadEvents returns the event stream of exactly one of a spec file,
// expanded deterministically, or a recorded trace. floptd's load
// generator and exptab's workload sweep take their input this way.
func LoadEvents(specPath, tracePath string) ([]Event, error) {
	switch {
	case (specPath == "") == (tracePath == ""):
		return nil, fmt.Errorf("workload: need exactly one of a spec file and a trace file")
	case specPath != "":
		spec, err := LoadSpecFile(specPath)
		if err != nil {
			return nil, err
		}
		return spec.Generate()
	}
	recs, err := ReadTraceFile(tracePath)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("workload: trace %s holds no records", tracePath)
	}
	return Events(recs), nil
}

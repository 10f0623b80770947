package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestEventJSONLGolden pins the JSONL event-export encoding to a golden
// file: field order, -1 sentinels for inapplicable ids, omitted empty
// Detail, one canonical JSON object per line. Any encoding change must be
// deliberate (rerun with -update) because downstream consumers parse this.
func TestEventJSONLGolden(t *testing.T) {
	r := NewRing(8)
	r.Append(Event{TimeUS: 0, Kind: EvRunStart, Node: -1, Thread: -1, File: -1})
	r.Append(Event{TimeUS: 0, Kind: EvNestStart, Node: -1, Thread: -1, File: -1, Detail: "nest 0"})
	r.Append(Event{TimeUS: 120_500, Kind: EvFailover, Node: 2, Thread: 17, File: 1})
	r.Append(Event{TimeUS: 180_000, Kind: EvTimeout, Node: 2, Thread: -1, File: 1})
	r.Append(Event{TimeUS: 186_400, Kind: EvReconstruct, Node: 3, Thread: -1, File: 1})
	r.Append(Event{TimeUS: 200_000, Kind: EvEvictionStorm, Node: 0, Thread: -1, File: -1, Detail: "3071 evictions in 4096 accesses"})
	r.Append(Event{TimeUS: 954_321, Kind: EvRunEnd, Node: -1, Thread: -1, File: -1})

	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "events.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSONL export drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

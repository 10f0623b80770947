package workload

import (
	"math"
	"reflect"
	"testing"
)

// driftSpec exercises every arrival process plus a phased mix shift.
func driftSpec() *Spec {
	return &Spec{
		Version:   SpecVersion,
		Name:      "drift",
		Seed:      42,
		DurationS: 4,
		RateRPS:   200,
		Clients: []Client{
			{
				ID:           "steady",
				RateFraction: 0.5,
				SLOClass:     "interactive",
				Arrival:      Arrival{Process: ProcessPoisson},
				Phases: []Phase{
					{StartS: 0, Mix: []MixEntry{{Program: "swim", Kind: KindOffsets, Weight: 1}}},
					{StartS: 2, Mix: []MixEntry{{Program: "mgrid", Kind: KindOffsets, Weight: 1}}},
				},
			},
			{
				ID:           "bursty",
				RateFraction: 0.3,
				SLOClass:     "batch",
				Arrival:      Arrival{Process: ProcessOnOff, OnS: 0.5, OffS: 1.0},
				Mix:          []MixEntry{{Program: "bt", Kind: KindSimulate, Weight: 1}},
			},
			{
				ID:           "cyclic",
				RateFraction: 0.2,
				Arrival: Arrival{Process: ProcessDiurnal, Periods: []Period{
					{DurS: 1, RateMult: 2}, {DurS: 1, RateMult: 0.5},
				}},
				Mix: []MixEntry{
					{Program: "applu", Kind: KindCompile, Weight: 1},
					{Program: "sp", Kind: KindOffsets, Weight: 2},
				},
			},
		},
	}
}

// TestGenerateDeterministicAcrossWorkers pins the acceptance criterion:
// a fixed-seed expansion is identical at any worker count.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	s := driftSpec()
	base, err := s.GenerateWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("spec expanded to zero events")
	}
	for _, workers := range []int{2, 4, 8} {
		evs, err := s.GenerateWorkers(workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(evs, base) {
			t.Fatalf("expansion at workers=%d differs from workers=1", workers)
		}
	}
	// And fully repeatable: a second expansion matches the first.
	again, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, base) {
		t.Fatal("repeat expansion differs")
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a := driftSpec()
	b := driftSpec()
	b.Seed = 43
	evA, _ := a.Generate()
	evB, _ := b.Generate()
	if reflect.DeepEqual(evA, evB) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestGenerateOrderAndSeq: events come out in nondecreasing time order
// with dense sequence numbers.
func TestGenerateOrderAndSeq(t *testing.T) {
	evs, err := driftSpec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range evs {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if i > 0 && e.TimeUS < evs[i-1].TimeUS {
			t.Fatalf("event %d time %d before predecessor %d", i, e.TimeUS, evs[i-1].TimeUS)
		}
		if e.TimeUS < 0 || e.TimeUS >= int64(4e6) {
			t.Fatalf("event %d time %d outside run window", i, e.TimeUS)
		}
	}
}

// TestGenerateRates: each client's event volume should approximate its
// rate share (the draw is deterministic, so this cannot flake — the
// bounds just document that the processes hit their nominal rates).
func TestGenerateRates(t *testing.T) {
	s := driftSpec()
	s.DurationS = 20
	s.RateRPS = 500
	evs, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	byClient := map[string]float64{}
	for _, e := range evs {
		byClient[e.Client]++
	}
	total := s.DurationS * s.RateRPS
	for _, c := range s.Clients {
		want := total * c.RateFraction
		// The diurnal process scales the rate by rate_mult directly (no
		// normalization), so its long-run average is rate × the
		// duration-weighted mean multiplier.
		if c.Arrival.Process == ProcessDiurnal {
			var durSum, weighted float64
			for _, p := range c.Arrival.Periods {
				durSum += p.DurS
				weighted += p.DurS * p.RateMult
			}
			want *= weighted / durSum
		}
		got := byClient[c.ID]
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("client %s: %v events, want ≈%v", c.ID, got, want)
		}
	}
}

// TestGenerateOnOffGaps: the bursty client must emit nothing during off
// windows.
func TestGenerateOnOffGaps(t *testing.T) {
	evs, err := driftSpec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if e.Client != "bursty" {
			continue
		}
		// Cycle is 1.5 s: on [0, 0.5), off [0.5, 1.5).
		phase := math.Mod(float64(e.TimeUS)/1e6, 1.5)
		if phase >= 0.5 {
			t.Fatalf("bursty event at t=%dµs falls in an off window", e.TimeUS)
		}
	}
}

// TestGeneratePhaseDrift: the steady client's program must switch from
// swim to mgrid at the 2 s phase boundary.
func TestGeneratePhaseDrift(t *testing.T) {
	evs, err := driftSpec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if e.Client != "steady" {
			continue
		}
		want := "swim"
		if e.TimeUS >= int64(2e6) {
			want = "mgrid"
		}
		if e.Program != want {
			t.Fatalf("steady event at t=%dµs runs %s, want %s", e.TimeUS, e.Program, want)
		}
	}
}

func TestGenerateDefaultsSLO(t *testing.T) {
	evs, err := driftSpec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	counts := ClassCounts(evs)
	for _, class := range []string{"interactive", "batch", "default"} {
		if counts[class] == 0 {
			t.Errorf("no events in class %q: %v", class, counts)
		}
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	s := driftSpec()
	s.Version = 99
	if _, err := s.Generate(); err == nil {
		t.Fatal("Generate accepted an invalid spec")
	}
}

func TestGenerateMaxEventsCap(t *testing.T) {
	s := driftSpec()
	s.MaxEvents = 50
	s.DurationS = 0.05 // keep expected volume under the cap so Validate passes
	evs, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(evs)) > 50 {
		t.Fatalf("cap 50 exceeded: %d events", len(evs))
	}
}

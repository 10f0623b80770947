package workload

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
)

// clientSeed derives the per-client RNG seed: the spec seed folded with
// an FNV-1a hash of the client ID. Each client owns an independent
// stream, so the expansion partitions per client — the worker count can
// only change which goroutine computes a stream, never its contents.
func clientSeed(specSeed int64, id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return specSeed ^ int64(h.Sum64())
}

// mixSeedSalt separates the mix-choice RNG from the arrival-time RNG so
// adding a mix entry cannot perturb arrival times (and vice versa).
const mixSeedSalt = 0x6d69785f73616c74 // "mix_salt"

// window is one constant-rate stretch of a client's arrival process:
// Poisson arrivals at rate req/s over [startS, endS).
type window struct {
	startS, endS float64
	rate         float64
}

// windows flattens the arrival process over [0, durS) into
// constant-rate windows. Onoff scales the on-rate so the long-run
// average matches the client's nominal rate.
func (a *Arrival) windows(rate, durS float64) []window {
	switch a.Process {
	case ProcessOnOff:
		onRate := rate * (a.OnS + a.OffS) / a.OnS
		var ws []window
		for t := 0.0; t < durS; t += a.OnS + a.OffS {
			end := t + a.OnS
			if end > durS {
				end = durS
			}
			ws = append(ws, window{t, end, onRate})
		}
		return ws
	case ProcessDiurnal:
		var ws []window
		t, i := 0.0, 0
		for t < durS {
			p := a.Periods[i%len(a.Periods)]
			end := t + p.DurS
			if end > durS {
				end = durS
			}
			if p.RateMult > 0 {
				ws = append(ws, window{t, end, rate * p.RateMult})
			}
			t = end
			i++
		}
		return ws
	default: // ProcessPoisson
		return []window{{0, durS, rate}}
	}
}

// phaseMix returns the mix active at time tS for the client.
func (c *Client) phaseMix(tS float64) []MixEntry {
	if len(c.Phases) == 0 {
		return c.Mix
	}
	mix := c.Phases[0].Mix
	for _, ph := range c.Phases {
		if ph.StartS > tS {
			break
		}
		mix = ph.Mix
	}
	return mix
}

// pickMix draws one weighted entry from mix using r.
func pickMix(mix []MixEntry, r *rand.Rand) MixEntry {
	var total float64
	for _, m := range mix {
		total += m.Weight
	}
	x := r.Float64() * total
	for _, m := range mix {
		x -= m.Weight
		if x < 0 {
			return m
		}
	}
	return mix[len(mix)-1] // float round-off
}

// clientEvents expands one client's full sub-stream (Seq unassigned).
// Two independent RNGs: timeRNG drives arrival times, mixRNG drives
// mix choices.
func (s *Spec) clientEvents(c *Client) []Event {
	timeRNG := rand.New(rand.NewSource(clientSeed(s.seed(), c.ID)))
	mixRNG := rand.New(rand.NewSource(clientSeed(s.seed()^mixSeedSalt, c.ID)))
	slo := c.SLOClass
	if slo == "" {
		slo = "default"
	}
	rate := s.RateRPS * c.RateFraction
	limit := s.maxEvents()
	var evs []Event
	for _, w := range c.Arrival.windows(rate, s.DurationS) {
		t := w.startS
		for {
			t += timeRNG.ExpFloat64() / w.rate
			if t >= w.endS || int64(len(evs)) >= limit {
				break
			}
			m := pickMix(c.phaseMix(t), mixRNG)
			evs = append(evs, Event{
				TimeUS:  int64(t * 1e6),
				Client:  c.ID,
				SLO:     slo,
				Kind:    m.Kind,
				Program: m.Program,
			})
		}
	}
	return evs
}

// Generate expands a validated spec into its totally-ordered event
// stream. The order is (TimeUS, client index, intra-client index) and
// Seq is the position in that order — a full total order, so replays
// issue requests in exactly this sequence.
func (s *Spec) Generate() ([]Event, error) {
	return s.GenerateWorkers(1)
}

// GenerateWorkers is Generate with an explicit worker count for the
// per-client expansion fan-out. The result is bit-identical for every
// workers value ≥ 1 — pinned by test — because each client's stream is
// a pure function of (spec seed, client ID) and the merge key is total.
func (s *Spec) GenerateWorkers(workers int) ([]Event, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	perClient := make([][]Event, len(s.Clients))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range s.Clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			perClient[i] = s.clientEvents(&s.Clients[i])
			<-sem
		}(i)
	}
	wg.Wait()

	type tagged struct {
		ev            Event
		client, intra int
	}
	var n int64
	for _, evs := range perClient {
		n += int64(len(evs))
	}
	if n > s.maxEvents() {
		// Validated specs stay under the cap in expectation; a pathological
		// draw can still exceed it, so truncate after the merge below.
		n = s.maxEvents()
	}
	all := make([]tagged, 0, n)
	for ci, evs := range perClient {
		for ii, ev := range evs {
			all = append(all, tagged{ev, ci, ii})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].ev.TimeUS != all[b].ev.TimeUS {
			return all[a].ev.TimeUS < all[b].ev.TimeUS
		}
		if all[a].client != all[b].client {
			return all[a].client < all[b].client
		}
		return all[a].intra < all[b].intra
	})
	if int64(len(all)) > n {
		all = all[:n]
	}
	out := make([]Event, len(all))
	for i, t := range all {
		out[i] = t.ev
		out[i].Seq = int64(i)
	}
	return out, nil
}

// ClassCounts tallies events per SLO class — the invariant the smoke
// script and the replay tests compare across record/replay runs.
func ClassCounts(evs []Event) map[string]int64 {
	m := map[string]int64{}
	for _, e := range evs {
		m[e.SLO]++
	}
	return m
}

// Programs returns the distinct program names in evs, sorted.
func Programs(evs []Event) []string {
	seen := map[string]bool{}
	for _, e := range evs {
		seen[e.Program] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

package cache

import (
	"math/rand"
	"testing"
)

func benchTrace(n int) []BlockID {
	rng := rand.New(rand.NewSource(1))
	out := make([]BlockID, n)
	for i := range out {
		out[i] = BlockID{File: int32(rng.Intn(4)), Block: int64(rng.Intn(4096))}
	}
	return out
}

func BenchmarkLRUAccess(b *testing.B) {
	trace := benchTrace(1 << 16)
	c := NewLRU(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(trace[i%len(trace)])
	}
}

func BenchmarkInclusiveLRURead(b *testing.B) {
	trace := benchTrace(1 << 16)
	m := NewInclusiveLRU(16, 4, 64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(i%16, i%4, trace[i%len(trace)])
	}
}

func BenchmarkDemoteLRURead(b *testing.B) {
	trace := benchTrace(1 << 16)
	m := NewDemoteLRU(16, 4, 64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(i%16, i%4, trace[i%len(trace)])
	}
}

func BenchmarkKARMARead(b *testing.B) {
	trace := benchTrace(1 << 16)
	var hints []RangeHint
	for f := int32(0); f < 4; f++ {
		for r := int64(0); r < 4096; r += 256 {
			freq := make([]float64, 16)
			for i := range freq {
				freq[i] = float64((int(f)*7 + int(r/256) + i) % 13)
			}
			hints = append(hints, RangeHint{File: f, Start: r, End: r + 256, FreqPerIO: freq})
		}
	}
	m := NewKARMA(16, 4, 64, 128, hints)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(i%16, i%4, trace[i%len(trace)])
	}
}

package sim

import (
	"flopt/internal/storage/cache"
	"flopt/internal/trace"
)

// GenerateHints derives KARMA range hints from the compiler's knowledge of
// the access streams: each file is cut into cfg.HintRangesPerFile equal
// block ranges and the expected per-I/O-cache access frequency of every
// range is counted exactly. This plays the role of KARMA's application
// hints; the paper notes that the optimized layout "enables KARMA to
// generate more accurate hints" — here that manifests as per-range
// frequencies concentrated on few I/O nodes instead of smeared across all.
func GenerateHints(cfg Config, ft *trace.FileTable, traces []*trace.NestTrace) []cache.RangeHint {
	ranges := cfg.HintRangesPerFile
	if ranges < 1 {
		ranges = 1
	}
	// Per file: block count and range width.
	nFiles := len(ft.Names)
	width := make([]int64, nFiles)
	blocks := make([]int64, nFiles)
	for f := 0; f < nFiles; f++ {
		blocks[f] = ft.Blocks(int32(f), cfg.BlockElems)
		w := (blocks[f] + int64(ranges) - 1) / int64(ranges)
		if w < 1 {
			w = 1
		}
		width[f] = w
	}
	// freq[file][range][io]
	freq := make([][][]float64, nFiles)
	for f := range freq {
		nr := int((blocks[f] + width[f] - 1) / width[f])
		freq[f] = make([][]float64, nr)
		for r := range freq[f] {
			freq[f][r] = make([]float64, cfg.IONodes)
		}
	}
	for _, nt := range traces {
		for t, stream := range nt.Streams {
			io := cfg.IONodeOf(t)
			for _, acc := range stream {
				freq[acc.File][int64(acc.Block)/width[acc.File]][io]++
			}
		}
	}
	var hints []cache.RangeHint
	for f := 0; f < nFiles; f++ {
		for r := range freq[f] {
			start := int64(r) * width[f]
			end := start + width[f]
			if end > blocks[f] {
				end = blocks[f]
			}
			hints = append(hints, cache.RangeHint{
				File:      int32(f),
				Start:     start,
				End:       end,
				FreqPerIO: freq[f][r],
			})
		}
	}
	return hints
}

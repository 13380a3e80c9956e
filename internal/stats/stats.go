// Package stats provides the small statistics toolkit used by the
// experiment harnesses: summaries, percentiles, and histograms and
// their overlap (Figure 7).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. An empty sample returns zeros.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = Percentile(sorted, 50)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Percentile returns the p-th percentile (0-100) of an ascending-sorted
// sample via linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-width-bin histogram.
type Histogram struct {
	Lo, Hi   float64
	BinWidth float64
	Counts   []int
	Total    int
	// UnderLo and OverHi count samples outside [Lo, Hi).
	UnderLo, OverHi int
}

// NewHistogram builds a histogram over [lo, hi) with bins bins.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{
		Lo: lo, Hi: hi,
		BinWidth: (hi - lo) / float64(bins),
		Counts:   make([]int, bins),
	}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.Total++
	if x < h.Lo {
		h.UnderLo++
		return
	}
	if x >= h.Hi {
		h.OverHi++
		return
	}
	bin := int((x - h.Lo) / h.BinWidth)
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	h.Counts[bin]++
}

// AddAll records every sample.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Frequency returns the relative frequency of bin i.
func (h *Histogram) Frequency(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// Render draws the histogram as rows of "low..high  count  bar" text, the
// form the Figure 7 harness prints.
func (h *Histogram) Render(width int) string {
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		lo := h.Lo + float64(i)*h.BinWidth
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "%8.0f..%-8.0f %6d %s\n", lo, lo+h.BinWidth, c, strings.Repeat("#", bar))
	}
	if h.UnderLo > 0 || h.OverHi > 0 {
		fmt.Fprintf(&b, "(outside range: %d below, %d above)\n", h.UnderLo, h.OverHi)
	}
	return b.String()
}

// Overlap estimates the overlap coefficient of two histograms with
// identical geometry: 1 means indistinguishable, 0 means fully separated.
// The Figure 7 claim is that the interference and baseline distributions
// barely overlap.
func Overlap(a, b *Histogram) float64 {
	if a.Lo != b.Lo || a.Hi != b.Hi || len(a.Counts) != len(b.Counts) {
		panic("stats: overlap of incompatible histograms")
	}
	if a.Total == 0 || b.Total == 0 {
		return 0
	}
	sum := 0.0
	for i := range a.Counts {
		sum += math.Min(a.Frequency(i), b.Frequency(i))
	}
	// Out-of-range mass overlaps conservatively.
	sum += math.Min(float64(a.UnderLo)/float64(a.Total), float64(b.UnderLo)/float64(b.Total))
	sum += math.Min(float64(a.OverHi)/float64(a.Total), float64(b.OverHi)/float64(b.Total))
	return sum
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-9 {
		t.Errorf("stddev = %f", s.Stddev)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {-5, 10}, {200, 40},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%.0f = %f, want %f", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	h.Add(5)
	h.Add(15)
	h.Add(15)
	h.Add(-1)
	h.Add(100)
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.UnderLo != 1 || h.OverHi != 1 {
		t.Errorf("out-of-range = %d/%d", h.UnderLo, h.OverHi)
	}
	if h.Total != 5 {
		t.Errorf("total = %d", h.Total)
	}
	if f := h.Frequency(1); math.Abs(f-0.4) > 1e-9 {
		t.Errorf("freq = %f", f)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 10, 2)
	h.AddAll([]float64{1, 2, 3, 7})
	out := h.Render(20)
	if out == "" {
		t.Fatal("empty render")
	}
	h.Add(-5)
	if out2 := h.Render(20); out2 == out {
		t.Error("out-of-range note missing")
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 0, 5) },
		func() { NewHistogram(0, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestOverlap(t *testing.T) {
	a := NewHistogram(0, 10, 10)
	b := NewHistogram(0, 10, 10)
	a.AddAll([]float64{1, 1, 2})
	b.AddAll([]float64{8, 8, 9})
	if o := Overlap(a, b); o != 0 {
		t.Errorf("disjoint overlap = %f", o)
	}
	c := NewHistogram(0, 10, 10)
	c.AddAll([]float64{1, 1, 2})
	if o := Overlap(a, c); math.Abs(o-1) > 1e-9 {
		t.Errorf("identical overlap = %f", o)
	}
}

func TestOverlapIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Overlap(NewHistogram(0, 10, 10), NewHistogram(0, 20, 10))
}

func TestSummarizeProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max && s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramTotalProperty(t *testing.T) {
	f := func(raw []int16) bool {
		h := NewHistogram(-100, 100, 20)
		for _, v := range raw {
			h.Add(float64(v))
		}
		inBins := 0
		for _, c := range h.Counts {
			inBins += c
		}
		return inBins+h.UnderLo+h.OverHi == h.Total && h.Total == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

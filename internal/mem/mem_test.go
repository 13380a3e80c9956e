package mem

import (
	"testing"
	"testing/quick"
)

func TestReadWrite(t *testing.T) {
	m := New()
	if m.Read64(0x100) != 0 {
		t.Error("fresh memory should read zero")
	}
	m.Write64(0x100, 42)
	if got := m.Read64(0x100); got != 42 {
		t.Errorf("Read64 = %d, want 42", got)
	}
	// Unaligned access hits the containing word.
	if got := m.Read64(0x103); got != 42 {
		t.Errorf("unaligned Read64 = %d, want 42", got)
	}
	m.Write64(0x107, 7)
	if got := m.Read64(0x100); got != 7 {
		t.Errorf("unaligned write should overwrite containing word, got %d", got)
	}
}

func TestLineHelpers(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Errorf("LineAddr(0x1234) = %#x", LineAddr(0x1234))
	}
	if LineOf(0x1234) != 0x48 {
		t.Errorf("LineOf(0x1234) = %#x", LineOf(0x1234))
	}
	if !SameLine(0x1200, 0x123f) {
		t.Error("0x1200 and 0x123f share a line")
	}
	if SameLine(0x1200, 0x1240) {
		t.Error("0x1200 and 0x1240 are different lines")
	}
}

func TestSetIndex(t *testing.T) {
	// Lines 0..63 with 64 sets map to distinct sets, then wrap.
	for i := int64(0); i < 64; i++ {
		if got := SetIndex(i*LineBytes, 64); got != int(i) {
			t.Fatalf("SetIndex(line %d) = %d", i, got)
		}
	}
	if SetIndex(64*LineBytes, 64) != 0 {
		t.Error("set index should wrap")
	}
	// Offsets within a line do not change the set.
	if SetIndex(0x1200, 64) != SetIndex(0x123f, 64) {
		t.Error("intra-line offset changed set index")
	}
}

func TestSetIndexPanicsOnBadSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two sets")
		}
	}()
	SetIndex(0, 48)
}

func TestSliceIndexRangeAndStability(t *testing.T) {
	counts := make([]int, 8)
	for i := int64(0); i < 4096; i++ {
		s := SliceIndex(i*LineBytes, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("slice %d out of range", s)
		}
		counts[s]++
		if again := SliceIndex(i*LineBytes, 8); again != s {
			t.Fatal("slice hash is not deterministic")
		}
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("slice %d never used — hash does not spread", s)
		}
	}
}

func TestSliceIndexSingleSlice(t *testing.T) {
	if SliceIndex(0xdeadbeef, 1) != 0 {
		t.Error("single slice must map to 0")
	}
}

func TestSliceIndexPanics(t *testing.T) {
	for _, n := range []int{0, -1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for numSlices=%d", n)
				}
			}()
			SliceIndex(0, n)
		}()
	}
}

func TestMemoryWordIsolationProperty(t *testing.T) {
	f := func(aRaw, bRaw uint16, va, vb int64) bool {
		a, b := int64(aRaw)*8, int64(bRaw)*8
		if a == b {
			return true
		}
		m := New()
		m.Write64(a, va)
		m.Write64(b, vb)
		return m.Read64(a) == va && m.Read64(b) == vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

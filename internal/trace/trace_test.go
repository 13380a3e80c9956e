package trace

import (
	"strings"
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
	"specinterference/internal/uarch"
)

func record(seq int64, op isa.Op, f, d, i, c, r int64, squashed bool) uarch.InstRecord {
	return uarch.InstRecord{
		Seq: seq, Inst: isa.Inst{Op: op},
		Fetch: f, Dispatch: d, Issue: i, Complete: c, Retire: r,
		Squashed: squashed,
	}
}

func TestRenderBasic(t *testing.T) {
	recs := []uarch.InstRecord{
		record(0, isa.MovI, 0, 1, 2, 3, 4, false),
		record(1, isa.Add, 0, 1, 3, 4, 5, false),
	}
	out := Render(recs, Options{CyclesPerChar: 1})
	if !strings.Contains(out, "movi") || !strings.Contains(out, "add") {
		t.Errorf("missing instructions:\n%s", out)
	}
	if !strings.Contains(out, "F") || !strings.Contains(out, "R") {
		t.Errorf("missing stage markers:\n%s", out)
	}
}

func TestRenderSquashedHidden(t *testing.T) {
	recs := []uarch.InstRecord{
		record(0, isa.MovI, 0, 1, 2, 3, 4, false),
		record(1, isa.Load, 0, 1, 2, 5, -1, true),
	}
	out := Render(recs, Options{})
	if strings.Contains(out, "load") {
		t.Error("squashed row shown without ShowSquashed")
	}
	out = Render(recs, Options{ShowSquashed: true})
	if !strings.Contains(out, "load") || !strings.Contains(out, "x") {
		t.Errorf("squashed row missing or unmarked:\n%s", out)
	}
}

func TestRenderWindowAndCap(t *testing.T) {
	var recs []uarch.InstRecord
	for i := int64(0); i < 20; i++ {
		recs = append(recs, record(i, isa.Nop, i*10, i*10+1, i*10+2, i*10+3, i*10+4, false))
	}
	out := Render(recs, Options{From: 0, To: 50, CyclesPerChar: 1})
	if strings.Count(out, "nop") > 7 {
		t.Errorf("window not applied:\n%s", out)
	}
	out = Render(recs, Options{MaxRows: 3})
	if strings.Count(out, "nop") != 3 || !strings.Contains(out, "more rows") {
		t.Errorf("row cap not applied:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	if Render(nil, Options{}) != "(no records)\n" {
		t.Error("empty render")
	}
}

func TestLegendAndSummary(t *testing.T) {
	if Legend() == "" {
		t.Error("empty legend")
	}
	recs := []uarch.InstRecord{
		record(0, isa.MovI, 0, 1, 2, 3, 10, false),
		record(1, isa.Load, 0, 1, 2, 5, -1, true),
	}
	s := Summary(recs)
	if !strings.Contains(s, "retired 1") || !strings.Contains(s, "squashed 1") {
		t.Errorf("summary = %q", s)
	}
	if !strings.Contains(s, "10.0") {
		t.Errorf("latency missing: %q", s)
	}
}

func TestRecorderWithRealPipeline(t *testing.T) {
	p := asm.MustAssemble(`
    movi r1, 5
    movi r2, 6
    mul  r3, r1, r2
    sqrt r4, r3
    halt`)
	cfg := uarch.DefaultConfig(1)
	s := uarch.MustNewSystem(cfg, mem.New())
	rec := NewRecorder()
	s.Core(0).SetTraceHook(rec)
	if err := s.LoadProgram(0, p, uarch.SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	recs := rec.Records()
	if len(recs) != 5 {
		t.Fatalf("records = %d, want 5", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq < recs[i-1].Seq {
			t.Error("records not ordered by seq")
		}
	}
	out := Render(recs, Options{})
	if !strings.Contains(out, "sqrt") {
		t.Errorf("pipeline render missing sqrt:\n%s", out)
	}
	rec.Reset()
	if len(rec.Records()) != 0 {
		t.Error("reset failed")
	}
}

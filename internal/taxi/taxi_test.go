package taxi

import (
	"fmt"
	"math"
	"testing"

	"patterndp/internal/event"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{GridW: 0, GridH: 5, NumTaxis: 1, Ticks: 1},
		{GridW: 5, GridH: 5, NumTaxis: 0, Ticks: 1},
		{GridW: 5, GridH: 5, NumTaxis: 1, Ticks: 0},
		{GridW: 5, GridH: 5, NumTaxis: 1, Ticks: 1, PrivateFrac: 1.5},
		{GridW: 5, GridH: 5, NumTaxis: 1, Ticks: 1, PrivateFrac: 0.8, ExtraTargetFrac: 0.5},
		{GridW: 5, GridH: 5, NumTaxis: 1, Ticks: 1, PrivateTargetOverlap: -1},
		{GridW: 5, GridH: 5, NumTaxis: 1, Ticks: 1, IdleProb: 1},
		{GridW: 5, GridH: 5, NumTaxis: 1, Ticks: 1, DetourProb: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig(1)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One fix per taxi per tick.
	want := cfg.NumTaxis * cfg.Ticks
	if len(ds.Events) != want {
		t.Errorf("events = %d, want %d", len(ds.Events), want)
	}
	// Events time-ordered.
	for i := 1; i < len(ds.Events); i++ {
		if ds.Events[i].Time < ds.Events[i-1].Time {
			t.Fatal("events not time-ordered")
		}
	}
}

func TestAreaFractions(t *testing.T) {
	cfg := DefaultConfig(2)
	ds, _ := Generate(cfg)
	cells := cfg.GridW * cfg.GridH
	gotPriv := float64(len(ds.PrivateCells)) / float64(cells)
	if math.Abs(gotPriv-0.2) > 0.05 {
		t.Errorf("private fraction = %v, want ~0.2", gotPriv)
	}
	gotTarget := float64(len(ds.TargetCells)) / float64(cells)
	if math.Abs(gotTarget-0.5) > 0.05 {
		t.Errorf("target fraction = %v, want ~0.5 (0.4 extra + half of 0.2 private)", gotTarget)
	}
	overlap := len(ds.OverlapCells())
	wantOverlap := float64(len(ds.PrivateCells)) * 0.5
	if math.Abs(float64(overlap)-wantOverlap) > 2 {
		t.Errorf("overlap = %d, want ~%v", overlap, wantOverlap)
	}
}

func TestCellsDistinctAndInGrid(t *testing.T) {
	cfg := DefaultConfig(3)
	ds, _ := Generate(cfg)
	seen := map[Cell]bool{}
	for _, c := range ds.PrivateCells {
		if seen[c] {
			t.Errorf("duplicate private cell %v", c)
		}
		seen[c] = true
		if c.X < 0 || c.X >= cfg.GridW || c.Y < 0 || c.Y >= cfg.GridH {
			t.Errorf("cell %v outside grid", c)
		}
	}
	seenT := map[Cell]bool{}
	for _, c := range ds.TargetCells {
		if seenT[c] {
			t.Errorf("duplicate target cell %v", c)
		}
		seenT[c] = true
	}
}

func TestMovementIsContiguous(t *testing.T) {
	// A taxi moves at most one cell per tick (Manhattan step or detour).
	cfg := DefaultConfig(4)
	cfg.NumTaxis = 3
	cfg.Ticks = 200
	ds, _ := Generate(cfg)
	last := map[string]Cell{}
	for _, e := range ds.Events {
		cur := mustCell(t, e)
		if prev, ok := last[e.Source]; ok {
			d := abs(cur.X-prev.X) + abs(cur.Y-prev.Y)
			if d > 1 {
				t.Fatalf("taxi %s jumped %d cells in one tick", e.Source, d)
			}
		}
		last[e.Source] = cur
	}
}

// cellOf is the inverse of Cell.Type: ok is false unless t is exactly the
// type of some cell, so a non-canonical spelling ("cell-01-2") is refused.
func cellOf(t event.Type) (Cell, bool) {
	var c Cell
	if _, err := fmt.Sscanf(string(t), "cell-%d-%d", &c.X, &c.Y); err != nil {
		return Cell{}, false
	}
	return c, c.Type() == t
}

func mustCell(t *testing.T, e event.Event) Cell {
	t.Helper()
	c, ok := cellOf(e.Type)
	if !ok {
		t.Fatalf("event %v is not a cell fix", e)
	}
	return c
}

func TestDeterminism(t *testing.T) {
	a, _ := Generate(DefaultConfig(5))
	b, _ := Generate(DefaultConfig(5))
	if len(a.Events) != len(b.Events) {
		t.Fatal("lengths differ")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestPrivateTypesAndTargetExprs(t *testing.T) {
	ds, _ := Generate(DefaultConfig(6))
	pts := ds.PrivateTypes()
	if len(pts) != len(ds.PrivateCells) {
		t.Errorf("private types = %d, want %d", len(pts), len(ds.PrivateCells))
	}
	for _, pt := range pts {
		if pt.Len() != 1 {
			t.Errorf("taxi private patterns should be single-event, got %d", pt.Len())
		}
	}
	exprs := ds.TargetExprs()
	if len(exprs) != len(ds.TargetCells) {
		t.Errorf("target exprs = %d, want %d", len(exprs), len(ds.TargetCells))
	}
}

func TestWindowsCoverTrace(t *testing.T) {
	ds, _ := Generate(DefaultConfig(7))
	ws := ds.Windows(10)
	total := 0
	for _, w := range ws {
		for _, c := range w.TypeCounts {
			total += c.N
		}
	}
	if total != len(ds.Events) {
		t.Errorf("windows hold %d events, trace has %d", total, len(ds.Events))
	}
}

func TestAllCellTypes(t *testing.T) {
	cfg := DefaultConfig(8)
	ds, _ := Generate(cfg)
	types := ds.AllCellTypes()
	if len(types) != cfg.GridW*cfg.GridH {
		t.Errorf("cell types = %d", len(types))
	}
	for i := 1; i < len(types); i++ {
		if types[i] <= types[i-1] {
			t.Fatal("cell types not sorted/unique")
		}
	}
}

func TestCellType(t *testing.T) {
	c := Cell{X: 3, Y: 7}
	if c.Type() != "cell-3-7" {
		t.Errorf("Type = %s", c.Type())
	}
	if got, ok := cellOf(c.Type()); !ok || got != c {
		t.Errorf("cellOf(%s) = %v, %v", c.Type(), got, ok)
	}
	for _, bad := range []event.Type{"cell-3", "cell-03-7", "cell-+3-7", "cell-3-7x", "cell-3-7-1", "gps-fix", ""} {
		if got, ok := cellOf(bad); ok {
			t.Errorf("cellOf(%q) = %v, accepted", bad, got)
		}
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFleetVisitsBothAreas(t *testing.T) {
	// Sanity: the fleet must actually produce events in private and target
	// cells, otherwise the experiment is vacuous.
	ds, _ := Generate(DefaultConfig(9))
	priv := map[event.Type]bool{}
	for _, c := range ds.PrivateCells {
		priv[c.Type()] = true
	}
	tgt := map[event.Type]bool{}
	for _, c := range ds.TargetCells {
		tgt[c.Type()] = true
	}
	var inPriv, inTgt int
	for _, e := range ds.Events {
		if priv[e.Type] {
			inPriv++
		}
		if tgt[e.Type] {
			inTgt++
		}
	}
	if inPriv == 0 || inTgt == 0 {
		t.Errorf("fleet visited private %d times, target %d times", inPriv, inTgt)
	}
}

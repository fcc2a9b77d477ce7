// Package taxi is the T-Drive substitution: a synthetic taxi-fleet simulator
// producing GPS-fix event streams with the same structure as the paper's
// real-world Taxi dataset (10,357 Beijing taxis sampled every ~177 s).
//
// The city is a grid of cells. Each taxi performs trips: it picks a random
// destination cell, moves toward it one cell per tick (Manhattan movement
// with occasional detours), idles briefly, and picks the next trip. Each
// tick corresponds to one GPS sampling period (177 s in the paper); every
// fix emits an event typed by the cell the taxi is in.
//
// Cell partitioning follows Section VI-A.1: a fraction of cells is the
// private pattern area (paper: 20 %), half of which also belongs to the
// target pattern area, plus extra target-only cells (paper: 40 %), for a
// total of ~50 % target area. Private patterns and target patterns are
// single-event GPS-location patterns, matching the paper's note that on
// Taxi "detecting a pattern is almost identical to detecting a basic event".
package taxi

import (
	"fmt"
	"math/rand"
	"sort"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// Config parameterizes the simulation.
type Config struct {
	// GridW and GridH are the city dimensions in cells.
	GridW, GridH int
	// NumTaxis is the fleet size.
	NumTaxis int
	// Ticks is the number of sampling periods to simulate.
	Ticks int
	// PrivateFrac is the fraction of cells in the private area (paper: 0.2).
	PrivateFrac float64
	// PrivateTargetOverlap is the fraction of private cells that are also
	// target cells (paper: 0.5).
	PrivateTargetOverlap float64
	// ExtraTargetFrac is the fraction of all cells that are target-only
	// (paper: 0.4).
	ExtraTargetFrac float64
	// IdleProb is the per-tick probability a taxi idles between trips.
	IdleProb float64
	// DetourProb is the per-tick probability of a sidestep while driving.
	DetourProb float64
	// Seed drives the simulation.
	Seed int64
}

// DefaultConfig returns a laptop-scale simulation with the paper's area
// fractions. The full T-Drive scale (10,357 taxis) is reachable by raising
// NumTaxis; the experiment's statistics are governed by the area fractions,
// not the fleet size.
func DefaultConfig(seed int64) Config {
	return Config{
		GridW: 12, GridH: 12,
		NumTaxis:             60,
		Ticks:                600,
		PrivateFrac:          0.2,
		PrivateTargetOverlap: 0.5,
		ExtraTargetFrac:      0.4,
		IdleProb:             0.15,
		DetourProb:           0.1,
		Seed:                 seed,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.GridW <= 0 || c.GridH <= 0:
		return fmt.Errorf("taxi: grid %dx%d", c.GridW, c.GridH)
	case c.NumTaxis <= 0:
		return fmt.Errorf("taxi: %d taxis", c.NumTaxis)
	case c.Ticks <= 0:
		return fmt.Errorf("taxi: %d ticks", c.Ticks)
	case c.PrivateFrac < 0 || c.PrivateFrac > 1:
		return fmt.Errorf("taxi: private fraction %v", c.PrivateFrac)
	case c.PrivateTargetOverlap < 0 || c.PrivateTargetOverlap > 1:
		return fmt.Errorf("taxi: overlap %v", c.PrivateTargetOverlap)
	case c.ExtraTargetFrac < 0 || c.PrivateFrac+c.ExtraTargetFrac > 1:
		return fmt.Errorf("taxi: private %v + extra target %v exceeds 1", c.PrivateFrac, c.ExtraTargetFrac)
	case c.IdleProb < 0 || c.IdleProb >= 1:
		return fmt.Errorf("taxi: idle probability %v", c.IdleProb)
	case c.DetourProb < 0 || c.DetourProb >= 1:
		return fmt.Errorf("taxi: detour probability %v", c.DetourProb)
	}
	return nil
}

// Cell is a grid cell.
type Cell struct {
	X, Y int
}

// Type returns the event type emitted by a GPS fix in this cell.
func (c Cell) Type() event.Type {
	return event.Type(fmt.Sprintf("cell-%d-%d", c.X, c.Y))
}

// Dataset is one simulated fleet trace plus the area partitioning.
type Dataset struct {
	// Config echoes the simulation parameters.
	Config Config
	// Events is the merged, time-ordered event stream of all taxis. Each
	// event's Time is the tick index and its Type names the cell.
	Events []event.Event
	// PrivateCells are the cells of the private pattern area.
	PrivateCells []Cell
	// TargetCells are the cells of the target pattern area.
	TargetCells []Cell
}

// Generate runs the simulation.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Config: cfg}
	ds.partitionCells(rng)

	type taxiState struct {
		pos, dest Cell
		idle      bool
	}
	fleet := make([]taxiState, cfg.NumTaxis)
	randCell := func() Cell {
		return Cell{X: rng.Intn(cfg.GridW), Y: rng.Intn(cfg.GridH)}
	}
	for i := range fleet {
		fleet[i] = taxiState{pos: randCell(), dest: randCell()}
	}

	perTaxi := make([][]event.Event, len(fleet))
	for i := range perTaxi {
		perTaxi[i] = make([]event.Event, 0, cfg.Ticks)
	}
	for tick := 0; tick < cfg.Ticks; tick++ {
		for i := range fleet {
			st := &fleet[i]
			// Emit the GPS fix for the current position.
			ev := event.New(st.pos.Type(), event.Timestamp(tick)).
				WithSource(fmt.Sprintf("taxi-%d", i))
			perTaxi[i] = append(perTaxi[i], ev)

			// Advance.
			if st.pos == st.dest {
				if rng.Float64() < cfg.IdleProb {
					continue // idle at the destination
				}
				st.dest = randCell()
			}
			st.pos = stepToward(rng, st.pos, st.dest, cfg)
		}
	}
	ds.Events = stream.MergeSortedSlices(perTaxi...)
	return ds, nil
}

// stepToward moves one Manhattan step toward dest, with an occasional
// random detour, clamped to the grid.
func stepToward(rng *rand.Rand, pos, dest Cell, cfg Config) Cell {
	if rng.Float64() < cfg.DetourProb {
		switch rng.Intn(4) {
		case 0:
			pos.X++
		case 1:
			pos.X--
		case 2:
			pos.Y++
		default:
			pos.Y--
		}
	} else {
		// Prefer the axis with the larger distance.
		dx, dy := dest.X-pos.X, dest.Y-pos.Y
		if abs(dx) >= abs(dy) && dx != 0 {
			pos.X += sign(dx)
		} else if dy != 0 {
			pos.Y += sign(dy)
		}
	}
	pos.X = clamp(pos.X, 0, cfg.GridW-1)
	pos.Y = clamp(pos.Y, 0, cfg.GridH-1)
	return pos
}

// partitionCells selects the private and target areas per Section VI-A.1.
func (ds *Dataset) partitionCells(rng *rand.Rand) {
	cfg := ds.Config
	all := make([]Cell, 0, cfg.GridW*cfg.GridH)
	for x := 0; x < cfg.GridW; x++ {
		for y := 0; y < cfg.GridH; y++ {
			all = append(all, Cell{X: x, Y: y})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })

	nPrivate := int(float64(len(all)) * cfg.PrivateFrac)
	private := all[:nPrivate]
	rest := all[nPrivate:]

	// Half (PrivateTargetOverlap) of the private area is also target.
	nOverlap := int(float64(nPrivate) * cfg.PrivateTargetOverlap)
	target := make([]Cell, 0, nOverlap+int(float64(len(all))*cfg.ExtraTargetFrac))
	target = append(target, private[:nOverlap]...)

	// Extra target-only cells from the non-private remainder.
	nExtra := int(float64(len(all)) * cfg.ExtraTargetFrac)
	if nExtra > len(rest) {
		nExtra = len(rest)
	}
	target = append(target, rest[:nExtra]...)

	sortCells(private)
	sortCells(target)
	ds.PrivateCells = private
	ds.TargetCells = target
}

func sortCells(cs []Cell) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].X != cs[j].X {
			return cs[i].X < cs[j].X
		}
		return cs[i].Y < cs[j].Y
	})
}

// PrivateTypes returns one single-element pattern type per private cell —
// the paper's "simple pattern types, i.e., GPS locations only".
func (ds *Dataset) PrivateTypes() []core.PatternType {
	out := make([]core.PatternType, 0, len(ds.PrivateCells))
	for _, c := range ds.PrivateCells {
		pt, err := core.NewPatternType(fmt.Sprintf("private-%d-%d", c.X, c.Y), c.Type())
		if err != nil {
			panic(err) // cell types are never empty
		}
		out = append(out, pt)
	}
	return out
}

// TargetExprs returns one single-atom expression per target cell.
func (ds *Dataset) TargetExprs() []cep.Expr {
	out := make([]cep.Expr, 0, len(ds.TargetCells))
	for _, c := range ds.TargetCells {
		out = append(out, cep.E(c.Type()))
	}
	return out
}

// AllCellTypes returns the event types of every grid cell, sorted.
func (ds *Dataset) AllCellTypes() []event.Type {
	out := make([]event.Type, 0, ds.Config.GridW*ds.Config.GridH)
	for x := 0; x < ds.Config.GridW; x++ {
		for y := 0; y < ds.Config.GridH; y++ {
			out = append(out, Cell{X: x, Y: y}.Type())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Windows cuts the trace into tumbling windows of the given width in ticks.
func (ds *Dataset) Windows(width event.Timestamp) []stream.Window {
	return stream.WindowSlice(ds.Events, width)
}

// OverlapCells returns the cells that are both private and target.
func (ds *Dataset) OverlapCells() []Cell {
	priv := make(map[Cell]bool, len(ds.PrivateCells))
	for _, c := range ds.PrivateCells {
		priv[c] = true
	}
	var out []Cell
	for _, c := range ds.TargetCells {
		if priv[c] {
			out = append(out, c)
		}
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

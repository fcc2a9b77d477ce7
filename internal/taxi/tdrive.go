package taxi

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"patterndp/internal/event"
)

// This file loads real T-Drive-format GPS traces, so the simulator
// substitution can be swapped for the paper's actual dataset when it is
// available. T-Drive files are per-taxi CSVs with lines
//
//	taxi_id,YYYY-MM-DD HH:MM:SS,longitude,latitude
//
// Fixes are mapped onto a grid over a configured bounding box; each fix
// becomes a cell event exactly like the simulator's output, so everything
// downstream (partitioning, windows, mechanisms) runs unchanged.

// BoundingBox is the geographic region mapped onto the grid.
type BoundingBox struct {
	// MinLon, MaxLon bound the longitude range.
	MinLon, MaxLon float64
	// MinLat, MaxLat bound the latitude range.
	MinLat, MaxLat float64
}

// BeijingBox is the approximate T-Drive coverage area.
func BeijingBox() BoundingBox {
	return BoundingBox{MinLon: 116.0, MaxLon: 116.8, MinLat: 39.6, MaxLat: 40.2}
}

// Valid reports whether the box has positive extent.
func (b BoundingBox) Valid() bool {
	return b.MaxLon > b.MinLon && b.MaxLat > b.MinLat
}

// TraceConfig configures trace loading.
type TraceConfig struct {
	// GridW, GridH are the grid dimensions fixes are quantized to.
	GridW, GridH int
	// Box is the geographic bounding box; fixes outside it are dropped.
	Box BoundingBox
	// SamplePeriod is the logical-tick duration; fix timestamps are
	// quantized to ticks of this length. Defaults to 177 s (the T-Drive
	// sampling period) when zero.
	SamplePeriod time.Duration
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.SamplePeriod == 0 {
		c.SamplePeriod = SamplePeriodSeconds * time.Second
	}
	return c
}

func (c TraceConfig) validate() error {
	if c.GridW <= 0 || c.GridH <= 0 {
		return fmt.Errorf("taxi: grid %dx%d", c.GridW, c.GridH)
	}
	if !c.Box.Valid() {
		return fmt.Errorf("taxi: invalid bounding box %+v", c.Box)
	}
	if c.SamplePeriod < 0 {
		return fmt.Errorf("taxi: negative sample period %v", c.SamplePeriod)
	}
	return nil
}

// LoadStats reports what a trace load kept and dropped.
type LoadStats struct {
	// Lines is the number of non-empty input lines.
	Lines int
	// Kept is the number of fixes converted to events.
	Kept int
	// OutOfBox counts fixes outside the bounding box.
	OutOfBox int
	// Malformed counts unparseable lines.
	Malformed int
}

// LoadTrace parses a T-Drive-format CSV stream into cell events. Malformed
// lines and out-of-box fixes are skipped and counted, not fatal: real GPS
// dumps are dirty. Events are returned in canonical stream order; the
// logical timestamp is the tick index from the earliest fix.
func LoadTrace(r io.Reader, cfg TraceConfig) ([]event.Event, LoadStats, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, LoadStats{}, err
	}
	type fix struct {
		id   string
		at   time.Time
		cell Cell
	}
	var fixes []fix
	var stats LoadStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		stats.Lines++
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			stats.Malformed++
			continue
		}
		at, err := time.Parse("2006-01-02 15:04:05", strings.TrimSpace(parts[1]))
		if err != nil {
			stats.Malformed++
			continue
		}
		lon, err1 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		lat, err2 := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
		if err1 != nil || err2 != nil {
			stats.Malformed++
			continue
		}
		cell, ok := cfg.cellOf(lon, lat)
		if !ok {
			stats.OutOfBox++
			continue
		}
		fixes = append(fixes, fix{id: strings.TrimSpace(parts[0]), at: at, cell: cell})
		stats.Kept++
	}
	if err := sc.Err(); err != nil {
		return nil, stats, fmt.Errorf("taxi: reading trace: %w", err)
	}
	if len(fixes) == 0 {
		return nil, stats, nil
	}
	// Quantize wall time to ticks from the earliest fix.
	earliest := fixes[0].at
	for _, f := range fixes[1:] {
		if f.at.Before(earliest) {
			earliest = f.at
		}
	}
	evs := make([]event.Event, 0, len(fixes))
	for _, f := range fixes {
		tick := event.Timestamp(f.at.Sub(earliest) / cfg.SamplePeriod)
		evs = append(evs, event.New(f.cell.Type(), tick).WithSource("taxi-"+f.id))
	}
	event.SortEvents(evs)
	return evs, stats, nil
}

// cellOf maps a coordinate to its grid cell; ok is false outside the box.
func (c TraceConfig) cellOf(lon, lat float64) (Cell, bool) {
	if lon < c.Box.MinLon || lon > c.Box.MaxLon || lat < c.Box.MinLat || lat > c.Box.MaxLat {
		return Cell{}, false
	}
	x := int((lon - c.Box.MinLon) / (c.Box.MaxLon - c.Box.MinLon) * float64(c.GridW))
	y := int((lat - c.Box.MinLat) / (c.Box.MaxLat - c.Box.MinLat) * float64(c.GridH))
	if x >= c.GridW {
		x = c.GridW - 1
	}
	if y >= c.GridH {
		y = c.GridH - 1
	}
	return Cell{X: x, Y: y}, true
}

// DatasetFromEvents wraps externally loaded events (e.g. a real T-Drive
// trace) into a Dataset, sampling the private/target areas with the same
// partitioning as the simulator. Only cells actually visited are partitioned,
// mirroring the paper's "randomly select 20% GPS locations".
func DatasetFromEvents(evs []event.Event, cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("taxi: no events")
	}
	ds := &Dataset{Config: cfg, Events: evs}
	// Partition over visited cells.
	visited := map[Cell]bool{}
	for _, e := range evs {
		c, ok := cellOf(e.Type)
		if !ok {
			return nil, fmt.Errorf("taxi: event %v is not a cell fix", e)
		}
		visited[c] = true
	}
	cells := make([]Cell, 0, len(visited))
	for c := range visited {
		cells = append(cells, c)
	}
	sortCells(cells)
	// Deterministic partition from the config seed via the same scheme as
	// the simulator, but over visited cells only.
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	nPrivate := int(float64(len(cells)) * cfg.PrivateFrac)
	private := cells[:nPrivate]
	rest := cells[nPrivate:]
	nOverlap := int(float64(nPrivate) * cfg.PrivateTargetOverlap)
	target := append([]Cell{}, private[:nOverlap]...)
	nExtra := int(float64(len(cells)) * cfg.ExtraTargetFrac)
	if nExtra > len(rest) {
		nExtra = len(rest)
	}
	target = append(target, rest[:nExtra]...)
	sortCells(private)
	sortCells(target)
	ds.PrivateCells = private
	ds.TargetCells = target
	return ds, nil
}

package taxi

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"patterndp/internal/event"
)

const sampleTrace = `1,2008-02-02 15:36:08,116.51172,39.92123
1,2008-02-02 15:39:05,116.51135,39.93883
2,2008-02-02 15:36:30,116.30000,39.90000
garbage line
3,2008-02-02 15:37:00,bad,39.9
4,2008-02-02 15:37:00,10.0,50.0
5,not-a-date,116.4,39.9
`

func traceCfg() TraceConfig {
	return TraceConfig{GridW: 10, GridH: 10, Box: BeijingBox()}
}

func TestLoadTraceParsesAndSkips(t *testing.T) {
	evs, stats, err := LoadTrace(strings.NewReader(sampleTrace), traceCfg())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lines != 7 {
		t.Errorf("Lines = %d, want 7", stats.Lines)
	}
	if stats.Kept != 3 {
		t.Errorf("Kept = %d, want 3", stats.Kept)
	}
	if stats.OutOfBox != 1 {
		t.Errorf("OutOfBox = %d, want 1 (taxi 4)", stats.OutOfBox)
	}
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	// Events name their cell and carry tick timestamps from the earliest fix.
	for _, e := range evs {
		if _, ok := cellOf(e.Type); !ok {
			t.Errorf("event %v is not a cell fix", e)
		}
		if e.Time < 0 {
			t.Errorf("negative tick %d", e.Time)
		}
	}
	// Taxi 1's second fix is 177 s after the first: tick 1 vs tick 0.
	var t0, t1 int64 = -1, -1
	for _, e := range evs {
		if e.Source == "taxi-1" {
			if t0 == -1 {
				t0 = int64(e.Time)
			} else {
				t1 = int64(e.Time)
			}
		}
	}
	if t0 != 0 || t1 != 1 {
		t.Errorf("taxi-1 ticks = %d, %d; want 0, 1", t0, t1)
	}
}

func TestLoadTraceMalformedCount(t *testing.T) {
	_, stats, err := LoadTrace(strings.NewReader(sampleTrace), traceCfg())
	if err != nil {
		t.Fatal(err)
	}
	// garbage line (wrong fields), bad lon, bad date = 3 malformed.
	if stats.Malformed != 3 {
		t.Errorf("Malformed = %d, want 3", stats.Malformed)
	}
}

func TestLoadTraceEmpty(t *testing.T) {
	evs, stats, err := LoadTrace(strings.NewReader(""), traceCfg())
	if err != nil {
		t.Fatal(err)
	}
	if evs != nil || stats.Lines != 0 {
		t.Errorf("empty trace: evs=%v stats=%+v", evs, stats)
	}
}

func TestLoadTraceConfigValidation(t *testing.T) {
	if _, _, err := LoadTrace(strings.NewReader(""), TraceConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	bad := traceCfg()
	bad.Box = BoundingBox{MinLon: 2, MaxLon: 1, MinLat: 0, MaxLat: 1}
	if _, _, err := LoadTrace(strings.NewReader(""), bad); err == nil {
		t.Error("inverted box accepted")
	}
	neg := traceCfg()
	neg.SamplePeriod = -time.Second
	if _, _, err := LoadTrace(strings.NewReader(""), neg); err == nil {
		t.Error("negative period accepted")
	}
}

func TestCellOfQuantization(t *testing.T) {
	cfg := traceCfg().withDefaults()
	// Max corner must clamp into the last cell, not overflow.
	c, ok := cfg.cellOf(cfg.Box.MaxLon, cfg.Box.MaxLat)
	if !ok || c.X != 9 || c.Y != 9 {
		t.Errorf("max corner cell = %v ok=%t", c, ok)
	}
	c, ok = cfg.cellOf(cfg.Box.MinLon, cfg.Box.MinLat)
	if !ok || c.X != 0 || c.Y != 0 {
		t.Errorf("min corner cell = %v ok=%t", c, ok)
	}
	if _, ok := cfg.cellOf(0, 0); ok {
		t.Error("far-away point inside box")
	}
}

func TestDatasetFromEvents(t *testing.T) {
	// Build a trace visiting many distinct cells so partitioning has
	// something to work with.
	var sb strings.Builder
	base := time.Date(2008, 2, 2, 15, 0, 0, 0, time.UTC)
	box := BeijingBox()
	for i := 0; i < 50; i++ {
		lon := box.MinLon + (box.MaxLon-box.MinLon)*float64(i%10)/10 + 0.01
		lat := box.MinLat + (box.MaxLat-box.MinLat)*float64(i/10)/10 + 0.01
		sb.WriteString("7,")
		sb.WriteString(base.Add(time.Duration(i) * 177 * time.Second).Format("2006-01-02 15:04:05"))
		sb.WriteString(",")
		sb.WriteString(formatFloat(lon))
		sb.WriteString(",")
		sb.WriteString(formatFloat(lat))
		sb.WriteString("\n")
	}
	evs, _, err := LoadTrace(strings.NewReader(sb.String()), traceCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(5)
	cfg.GridW, cfg.GridH = 10, 10
	ds, err := DatasetFromEvents(evs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.PrivateCells) == 0 || len(ds.TargetCells) == 0 {
		t.Errorf("partitioning empty: %d private, %d target",
			len(ds.PrivateCells), len(ds.TargetCells))
	}
	// ~20% of the 50 visited cells private.
	if p := len(ds.PrivateCells); p < 7 || p > 13 {
		t.Errorf("private cells = %d, want ~10", p)
	}
	// Windows and types work downstream.
	if ws := ds.Windows(5); len(ws) == 0 {
		t.Error("no windows")
	}
}

func TestDatasetFromEventsErrors(t *testing.T) {
	cfg := DefaultConfig(1)
	if _, err := DatasetFromEvents(nil, cfg); err == nil {
		t.Error("no events accepted")
	}
	if _, err := DatasetFromEvents(nil, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
	// Events that are not cell fixes are rejected.
	evs, _, _ := LoadTrace(strings.NewReader("1,2008-02-02 15:36:08,116.5,39.9\n"), traceCfg())
	for _, typ := range []event.Type{"gps-fix", "cell-01-2"} {
		evs[0].Type = typ
		if _, err := DatasetFromEvents(evs, cfg); err == nil {
			t.Errorf("event of type %q accepted", typ)
		}
	}
}

func formatFloat(f float64) string {
	return fmt.Sprintf("%.6f", f)
}

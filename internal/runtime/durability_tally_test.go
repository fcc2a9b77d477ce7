package runtime

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/durable"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// tallyFeed builds two streams' events, disordered within the reorder
// allowance; none of them (type, time, source) may reach a checkpoint, only
// their tallies.
func tallyFeed() []event.Event {
	types := []event.Type{"a", "b", "c"}
	var out []event.Event
	for i := 0; i < 60; i++ {
		for s, key := range []string{"stream-0", "stream-1"} {
			at := event.Timestamp(3*i + s)
			if i%4 == 3 {
				at -= 9 // a straggler the reorder buffer tallies into place
			}
			out = append(out, event.New(types[(i+s)%len(types)], at).WithSource(key))
		}
	}
	return out
}

// tallyConfig serves tallyFeed deterministically (identity mechanism) under a
// reorder buffer wide enough to keep several panes open per stream.
func tallyConfig(t *testing.T, dir string, slide event.Timestamp) Config {
	t.Helper()
	pt, err := core.NewPatternType("priv", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Shards:          2,
		WindowWidth:     10,
		Slide:           slide,
		Lateness:        ReorderBuffer,
		AllowedLateness: 25,
		Mechanism:       func(int) (core.Mechanism, error) { return core.Identity{}, nil },
		Private:         []core.PatternType{pt},
		Targets: []cep.Query{
			{Name: "has-a", Pattern: cep.E("a"), Window: 10},
			{Name: "seq-ab", Pattern: cep.SeqTypes("a", "b"), Window: 10},
		},
		Seed: 7,
	}
	if dir != "" {
		cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncOff}
	}
	return cfg
}

// serveInto starts a runtime, attaches a sink collecting its answers, and
// ingests evs one by one.
func serveInto(t *testing.T, cfg Config, sink *collectSink, evs []event.Event) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Attach("", sink); err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if err := rt.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// releasedByStream orders the collected answers the way a consumer can tell
// them apart: per stream and query, in delivery order.
func releasedByStream(got []Answer) map[string][]released {
	out := make(map[string][]released)
	for _, a := range got {
		key := a.Stream + "/" + a.Query
		out[key] = append(out[key], released{Stream: a.Stream, Query: a.Query, WindowIndex: a.WindowIndex, Detected: a.Detected})
	}
	return out
}

// latestCheckpoint returns the JSON payload of the newest checkpoint file in
// dir (the 16-byte header stripped) and its decoded form.
func latestCheckpoint(t *testing.T, dir string) ([]byte, durable.Checkpoint) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoint in %s (%v)", dir, err)
	}
	data, err := os.ReadFile(names[len(names)-1]) // Glob sorts; IDs are fixed-width hex
	if err != nil {
		t.Fatal(err)
	}
	payload := data[16:]
	var ck durable.Checkpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		t.Fatal(err)
	}
	return payload, ck
}

// checkNoEventPayload asserts a checkpoint is made of tallies: no key of an
// event's serialized form, current ("source") or retired ("wall", "attrs"),
// and no Pending events; it returns the most open panes any stream holds.
func checkNoEventPayload(t *testing.T, payload []byte, ck durable.Checkpoint) (maxOpen int) {
	t.Helper()
	for _, s := range []string{`"pending"`, `"attrs"`, `"source"`, `"wall"`} {
		if bytes.Contains(payload, []byte(s)) {
			t.Errorf("checkpoint contains %s: an event reached the disk", s)
		}
	}
	for _, sc := range ck.Shards {
		for _, st := range sc.Streams {
			if st.Windower.Pending != nil {
				t.Errorf("stream %s: checkpoint decodes to %d pending events", st.Key, len(st.Windower.Pending))
			}
			maxOpen = max(maxOpen, len(st.Windower.Open))
		}
	}
	return maxOpen
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointHoldsTalliesNotEvents is the at-rest boundary check: a
// checkpoint taken mid-pane under a reorder buffer, with several panes open
// per stream, holds their type tallies and no event payload — and a runtime
// restarted from it, like one adopting a Freeze, goes on to release exactly
// the answers of an uninterrupted run.
func TestCheckpointHoldsTalliesNotEvents(t *testing.T) {
	for _, mode := range windowModes {
		t.Run(mode.name, func(t *testing.T) {
			feed := tallyFeed()
			cut := len(feed)/2 + 1 // mid-pane for both streams

			var whole collectSink
			if err := serveInto(t, tallyConfig(t, "", mode.slide), &whole, feed).Close(); err != nil {
				t.Fatal(err)
			}
			want := releasedByStream(whole.got)

			// Crash after a checkpoint: the directory as the checkpoint left
			// it is what a restart finds.
			dir := t.TempDir()
			var before collectSink
			rt1 := serveInto(t, tallyConfig(t, dir, mode.slide), &before, feed[:cut])
			if err := rt1.Checkpoint(context.Background()); err != nil {
				t.Fatal(err)
			}
			// Deliver runs on the shard goroutine ahead of the checkpoint
			// export, so the sink already holds every pre-checkpoint answer.
			before.mu.Lock()
			resumed := collectSink{got: append([]Answer(nil), before.got...)}
			before.mu.Unlock()
			payload, ck := latestCheckpoint(t, dir)
			if open := checkNoEventPayload(t, payload, ck); open < 3 {
				t.Errorf("checkpoint holds at most %d open panes per stream; the case needs several", open)
			}
			crashed := t.TempDir()
			copyDir(t, dir, crashed)
			if err := rt1.Close(); err != nil {
				t.Fatal(err)
			}
			rt2 := serveInto(t, tallyConfig(t, crashed, mode.slide), &resumed, feed[cut:])
			if rt2.Recovery() == nil || rt2.Recovery().Streams != 2 {
				t.Fatalf("recovery = %+v, want both streams restored", rt2.Recovery())
			}
			if err := rt2.Close(); err != nil {
				t.Fatal(err)
			}
			if got := releasedByStream(resumed.got); !reflect.DeepEqual(got, want) {
				t.Errorf("restart from the mid-pane checkpoint released\n%v\nuninterrupted run released\n%v", got, want)
			}

			// Freeze → adopt: the handoff payload is the same serialization.
			frozen := t.TempDir()
			var handed collectSink
			rt3 := serveInto(t, tallyConfig(t, frozen, mode.slide), &handed, feed[:cut])
			if err := rt3.Freeze(context.Background()); err != nil {
				t.Fatal(err)
			}
			payload, ck = latestCheckpoint(t, frozen)
			checkNoEventPayload(t, payload, ck)
			rt4 := serveInto(t, tallyConfig(t, frozen, mode.slide), &handed, feed[cut:])
			if err := rt4.Close(); err != nil {
				t.Fatal(err)
			}
			if got := releasedByStream(handed.got); !reflect.DeepEqual(got, want) {
				t.Errorf("freeze → adopt released\n%v\nuninterrupted run released\n%v", got, want)
			}
		})
	}
}

// prePRWindowerState is a windower serialization written by the commit before
// the windower stopped buffering events (width 10, slide 5, reorder buffer
// 12; eight events pushed): the open panes travel as "pending" events.
const prePRWindowerState = `{"started":true,"next_start":10,"max_time":24,"dropped":0,"panes":2,` +
	`"pending":[{"type":"a","time":13,"source":"s"},` +
	`{"type":"c","time":21,"source":"s","attrs":{"secret":{"kind":"int","int":7}}},` +
	`{"type":"b","time":14,"source":"s"},{"type":"a","time":22,"source":"s"},` +
	`{"type":"c","time":11,"source":"s"},{"type":"a","time":24,"source":"s"}],` +
	`"ring":[[{"Type":"a","N":1}],[{"Type":"b","N":1}]]}`

// TestRestorePrePRCheckpoint pins the decode-only "pending" field: an older
// checkpoint's buffered events fold into the open-pane tallies a windower that
// saw the events itself holds, and serving continues identically.
func TestRestorePrePRCheckpoint(t *testing.T) {
	var ws durable.WindowerState
	if err := json.Unmarshal([]byte(prePRWindowerState), &ws); err != nil {
		t.Fatal(err)
	}
	if len(ws.Pending) != 6 || ws.Open != nil {
		t.Fatalf("decoded %d pending events and open %v, want 6 and none", len(ws.Pending), ws.Open)
	}
	restored := NewSlidingWindower(10, 5, ReorderBuffer, 12, 0)
	restoreWindower(restored, ws)

	// The events the pre-PR windower had been pushed.
	live := NewSlidingWindower(10, 5, ReorderBuffer, 12, 0)
	for _, e := range []event.Event{
		event.New("a", 1), event.New("b", 7), event.New("a", 13), event.New("c", 21),
		event.New("b", 14), event.New("a", 22), event.New("c", 11), event.New("a", 24),
	} {
		live.Push(e)
	}
	got, want := exportWindower(restored), exportWindower(live)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state %+v, want %+v", got, want)
	}
	wantOpen := []stream.TypeCounts{
		{{Type: "a", N: 1}, {Type: "b", N: 1}, {Type: "c", N: 1}}, // [10,15)
		nil,                                    // [15,20)
		{{Type: "c", N: 1}, {Type: "a", N: 2}}, // [20,25)
	}
	if !reflect.DeepEqual(got.Open, wantOpen) || got.Pending != nil {
		t.Fatalf("restored open tallies %v (pending %v), want %v", got.Open, got.Pending, wantOpen)
	}
	if out, err := json.Marshal(got); err != nil || bytes.Contains(out, []byte(`"pending"`)) {
		t.Fatalf("re-exported state still writes pending: %s (%v)", out, err)
	}
	// Serving continues identically from either.
	for _, e := range []event.Event{event.New("b", 31), event.New("a", 26), event.New("c", 48)} {
		a, _ := restored.Push(e)
		b, _ := live.Push(e)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("push %v: restored cut %+v, live cut %+v", e, a, b)
		}
	}
	if a, b := restored.FlushInto(nil), live.FlushInto(nil); !reflect.DeepEqual(a, b) {
		t.Fatalf("flush: restored %+v, live %+v", a, b)
	}
}

package runtime

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"patterndp/internal/core"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// collectSink keeps a copy of every answer it is delivered.
type collectSink struct {
	mu  sync.Mutex
	got []Answer
}

func (c *collectSink) Deliver(batch []Answer) {
	c.mu.Lock()
	c.got = append(c.got, batch...)
	c.mu.Unlock()
}

// windowModes are the two windowings the boundary tests cover: one pane per
// window, and two.
var windowModes = []struct {
	name  string
	slide event.Timestamp
}{{"tumbling", 0}, {"sliding", 5}}

// TestAnswerCarriesNoWindowContents is the consumer boundary of the paper's
// trust model as a property of the answer types: a data consumer sees the
// PPM-released bit and the window's interval, never the window's unperturbed
// contents. Neither core.Answer nor runtime.Answer, through any embedded or
// nested struct, has a field that could hold them: a stream.Window, its
// TypeCounts tally, or events.
func TestAnswerCarriesNoWindowContents(t *testing.T) {
	banned := []reflect.Type{
		reflect.TypeFor[stream.Window](),
		reflect.TypeFor[stream.TypeCounts](),
		reflect.TypeFor[[]event.Event](),
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			p := path + "." + f.Name
			if slices.Contains(banned, f.Type) {
				t.Errorf("%s is a %s: an answer carries only its window's interval", p, f.Type)
			}
			if f.Type.Kind() == reflect.Struct {
				walk(p, f.Type)
			}
		}
	}
	walk("core.Answer", reflect.TypeFor[core.Answer]())
	walk("runtime.Answer", reflect.TypeFor[Answer]())
}

// TestConsumerBoundaryIntervalOnly checks what a data consumer is delivered:
// for tumbling and sliding windows and both consumer attachments (the
// Subscribe channel and an Attach sink), every answer names a one-width
// interval, and a suppressed one never carries a detection. That no answer
// can carry the window's contents is a property of the type, pinned by
// TestAnswerCarriesNoWindowContents.
func TestConsumerBoundaryIntervalOnly(t *testing.T) {
	for _, mode := range windowModes {
		t.Run(mode.name, func(t *testing.T) {
			// Grant 2 at charge 1 under the suppress policy: each stream's
			// first windows are admitted, the rest suppressed.
			cfg := budgetConfig(t, 2, BudgetSuppress)
			cfg.Slide = mode.slide
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := rt.Subscribe("has-a")
			if err != nil {
				t.Fatal(err)
			}
			var attached collectSink
			if _, err := rt.Attach("", &attached); err != nil {
				t.Fatal(err)
			}
			var subscribed []Answer
			done := make(chan struct{})
			go func() {
				defer close(done)
				for a := range sub.C() {
					subscribed = append(subscribed, a)
				}
			}()
			// Two events a window; "b" is private too.
			for w := 0; w < 6; w++ {
				at := event.Timestamp(w * 10)
				for _, e := range []event.Event{
					event.New("a", at+1),
					event.New("b", at+7),
				} {
					if err := rt.Ingest(e.WithSource("s")); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			<-done
			for _, c := range []struct {
				name string
				got  []Answer
			}{{"Subscribe", subscribed}, {"Attach", attached.got}} {
				var admitted, suppressed int
				for _, a := range c.got {
					if a.Suppressed {
						suppressed++
						if a.Detected {
							t.Errorf("%s: suppressed answer %d leaked a detection", c.name, a.WindowIndex)
						}
					} else {
						admitted++
					}
					if a.End-a.Start != cfg.WindowWidth {
						t.Errorf("%s: answer %d window [%d,%d) is not one width wide",
							c.name, a.WindowIndex, a.Start, a.End)
					}
				}
				if admitted == 0 || suppressed == 0 {
					t.Errorf("%s: %d admitted and %d suppressed answers; the case needs both", c.name, admitted, suppressed)
				}
			}
		})
	}
}

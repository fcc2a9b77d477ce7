package runtime

import (
	"sync"
	"testing"

	"patterndp/internal/event"
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

// TestConsumerBoundaryIntervalOnly is the consumer-boundary check of the
// paper's trust model: a data consumer sees the PPM-released bit and the
// window's interval, never the window's unperturbed contents. For tumbling
// and sliding windows, admitted and suppressed answers, and both consumer
// attachments (the Subscribe channel and an Attach sink), no delivered answer
// may carry Window.Events or Window.TypeCounts.
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
			// Two events a window, so an escaped event or tally would be
			// visible as one; "b" is private too.
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
					if a.Window.Events != nil || a.Window.TypeCounts != nil {
						t.Errorf("%s: answer %d (suppressed=%t) carries window contents: %+v",
							c.name, a.WindowIndex, a.Suppressed, a.Window)
					}
					if a.Window.End-a.Window.Start != cfg.WindowWidth {
						t.Errorf("%s: answer %d window [%d,%d) is not one width wide",
							c.name, a.WindowIndex, a.Window.Start, a.Window.End)
					}
				}
				if admitted == 0 || suppressed == 0 {
					t.Errorf("%s: %d admitted and %d suppressed answers; the case needs both", c.name, admitted, suppressed)
				}
			}
		})
	}
}

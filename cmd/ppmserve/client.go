package main

import (
	"context"
	"fmt"
	"maps"
	"net"
	"os"
	"os/signal"
	"slices"
	"sync"
	"syscall"
	"time"

	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/server"
)

// tally counts one query's answers: all, detected, and (under a budget)
// suppressed placeholder releases.
type tally struct{ answers, detected, suppressed int }

// print writes the tally's report line.
func (t tally) print(query string) {
	rate := 0.0
	if t.answers > 0 {
		rate = float64(t.detected) / float64(t.answers)
	}
	if t.suppressed > 0 {
		fmt.Printf("  %-12s %6d answers, %5.1f%% detected, %d suppressed\n", query, t.answers, 100*rate, t.suppressed)
	} else {
		fmt.Printf("  %-12s %6d answers, %5.1f%% detected\n", query, t.answers, 100*rate)
	}
}

// runClient is the client role: replay the synthetic feed to a server as one
// tenant, subscribed to every query the server serves, and report what came
// back — including the budget position the answers carried.
func runClient(o options) error {
	addr, batch, reconnect := o.connect, o.batch, o.reconnect
	ds, err := dataset(o)
	if err != nil {
		return err
	}
	base := ds.Events()

	c, err := server.Connect(server.ClientConfig{
		Token:     o.tenant,
		Dialer:    func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Reconnect: reconnect,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	w := c.Welcome()
	fmt.Printf("connected to %s as %q: %d shards, grant %g, shared queries %v\n",
		addr, w.Tenant, w.Shards, w.Grant, w.Queries)
	if reconnect {
		fmt.Printf("reconnect enabled: session %s resumes with replay on transport failure\n", c.Session())
	}

	sub, err := c.Subscribe("", 1024)
	if err != nil {
		return err
	}
	// The consumer tallies per-query detections and tracks the budget
	// position answers carry per stream.
	tallies := make(map[string]*tally)
	lastSpend := make(map[string]float64)
	var gaps, gapped int
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C {
			if a.Gap {
				// An explicit gap marker: answers [GapFrom, Seq] were lost
				// to replay-ring overflow or an expired resume (Seq 0 =
				// extent unknown).
				gaps++
				if a.Seq >= a.GapFrom {
					gapped += int(a.Seq - a.GapFrom + 1)
				}
				continue
			}
			tl := tallies[a.Query]
			if tl == nil {
				tl = &tally{}
				tallies[a.Query] = tl
			}
			tl.answers++
			if a.Suppressed {
				tl.suppressed++
			} else if a.Detected {
				tl.detected++
			}
			if a.SpentEpsilon > 0 {
				lastSpend[a.Stream] = a.SpentEpsilon
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	sent := 0
	buf := make([]event.Event, 0, batch)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		for {
			_, err := c.Ingest(buf)
			if err == nil {
				break
			}
			// Under -reconnect a request that failed in flight is retried
			// once the session resumes; re-sent window events are idempotent
			// (late duplicates are dropped by the runtime).
			if !reconnect || c.Err() != nil || ctx.Err() != nil {
				return err
			}
			time.Sleep(50 * time.Millisecond)
		}
		sent += len(buf)
		buf = buf[:0]
		return nil
	}
feed:
	for i := 0; i < o.streams; i++ {
		key := fmt.Sprintf("stream-%03d", i)
		for _, e := range base {
			if ctx.Err() != nil {
				break feed
			}
			buf = append(buf, e.WithSource(key))
			if len(buf) == batch {
				if err := flush(); err != nil {
					return fmt.Errorf("after %d events: %w", sent, err)
				}
			}
		}
		if err := flush(); err != nil {
			return fmt.Errorf("after %d events: %w", sent, err)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("ingested %d events in %v — %.0f events/s\n",
		sent, elapsed.Round(time.Millisecond), metrics.Rate(int64(sent), elapsed))

	// Trailing windows stay open server-side until its drain; give in-flight
	// answers a moment, then detach.
	select {
	case <-time.After(time.Second):
	case <-ctx.Done():
	case g := <-c.Goodbye:
		fmt.Printf("server says goodbye: %s\n", g.Reason)
	}
	c.Unsubscribe(sub)
	consumer.Wait()

	fmt.Println("\nper-query answers:")
	for _, q := range slices.Sorted(maps.Keys(tallies)) {
		tallies[q].print(q)
	}
	if len(lastSpend) > 0 {
		fmt.Printf("budget: answers carried spend for %d streams, max stream spend %.4g eps\n",
			len(lastSpend), slices.Max(slices.Collect(maps.Values(lastSpend))))
	}
	if n := c.Reconnects(); n > 0 || gaps > 0 {
		fmt.Printf("resilience: %d reconnects, %d duplicate answers suppressed, %d gap markers (%d answers declared lost)\n",
			n, c.DupsDropped(), gaps, gapped)
	}
	return nil
}

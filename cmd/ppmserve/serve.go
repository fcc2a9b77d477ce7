// Network serving modes: -listen exposes the runtime to remote tenants over
// the wire protocol, -connect replays the synthetic feed as one such tenant.
//
//	ppmserve -listen :7070 -budget 100 -max-streams 64
//	ppmserve -listen :7070 -heartbeat 5s -resume-window 1m -replay-buffer 512
//	ppmserve -connect localhost:7070 -tenant alice -streams 8 -windows 200 -reconnect
//
// The server serves the dataset's target queries as shared queries every
// tenant may subscribe to; tenants can additionally register their own
// namespaced queries and private pattern types over the wire. Sessions are
// resilient (see README "Resilience"): -heartbeat bounds dead-peer detection,
// -resume-window keeps a disconnected session's replay state for
// reconnect-with-resume, -replay-buffer caps the per-subscription replay
// ring, and a -connect client with -reconnect rides transport failures with
// backoff, replay, and explicit gap markers. SIGINT/SIGTERM drain gracefully
// within -drain-timeout: listeners close, in-flight windows flush through the
// WAL and final checkpoint, sessions wind down, and the final report breaks
// serving, resilience counters, and ε spend down per tenant.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"patterndp/internal/durable"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
	"patterndp/internal/server"
)

// startAdmin serves the admin HTTP endpoint on addr; the returned func closes
// its listener.
func startAdmin(addr string, adm *server.Admin) (func(), error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin listen: %w", err)
	}
	fmt.Printf("admin endpoint on http://%s (/metrics /healthz /readyz /statsz /debug/pprof)\n", l.Addr())
	go http.Serve(l, adm)
	return func() { l.Close() }, nil
}

// handoffPhase returns the timer histogram for one rolling-restart phase.
// With a nil registry it returns a detached (unregistered) histogram, so the
// timing call sites need no gates.
func handoffPhase(reg *metrics.Registry, phase string) *metrics.Histogram {
	return reg.Histogram("ppm_handoff_phase_seconds",
		"Rolling-restart handoff phase durations: freeze (drain and pane-boundary quiesce), spill (session export), ship (directory transfer to the peer), receive (inbound transfer and verify).",
		metrics.L("phase", phase))
}

// runServer is the -listen mode: one shared runtime, many tenant
// connections, graceful drain on the first signal.
func runServer(o options) error {
	walDir := o.walDir
	// The -listen mode is always observed: one registry spans runtime,
	// durability, serving layer, and handoff phases whether or not an
	// -admin listener exposes it (the shutdown report reads it regardless).
	reg := metrics.NewRegistry()
	start := time.Now()
	var adopted *server.HandoffSummary
	if o.takeover != "" {
		recvStart := time.Now()
		sum, err := acceptHandoff(o.takeover, walDir, o.handoffToken)
		if err != nil {
			return fmt.Errorf("takeover failed (source still authoritative): %w", err)
		}
		handoffPhase(reg, "receive").ObserveSince(recvStart)
		adopted = &sum
		fmt.Printf("takeover: adopted %d files (%d bytes) from %s — %d sessions, source spend %.4g\n",
			sum.Files, sum.Bytes, sum.Source, sum.Sessions, sum.Spend)
	}
	rt, ds, err := buildRuntime(o, reg)
	if err != nil {
		return err
	}
	if adopted != nil {
		// The one-sided invariant, asserted across the process boundary: the
		// spend this process recovered must cover everything the source had
		// charged (and possibly published) at freeze.
		var recovered float64
		if rec := rt.Recovery(); rec != nil {
			recovered = float64(rec.RestoredSpend) + float64(rec.ReplayedSpend)
		}
		if recovered+1e-9 < adopted.Spend {
			rt.Close()
			return fmt.Errorf("takeover: recovered spend %.6g < source frozen spend %.6g — refusing to under-count", recovered, adopted.Spend)
		}
		fmt.Printf("takeover invariant: recovered spend %.4g >= source frozen spend %.4g\n", recovered, adopted.Spend)
	}
	srv, err := server.New(server.Config{
		Runtime:           rt,
		Auth:              server.TokenAuth(o.maxStreams),
		Heartbeat:         o.heartbeat,
		ResumeWindow:      o.resumeWindow,
		ReplayBuffer:      o.replayBuffer,
		RateLimit:         o.rateLimit,
		MaxParkedSessions: o.maxParked,
		Metrics:           reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "server: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if o.adminAddr != "" {
		closeAdmin, err := startAdmin(o.adminAddr, server.NewAdmin(server.AdminConfig{Registry: reg, Runtime: rt, Server: srv}))
		if err != nil {
			rt.Close()
			return err
		}
		defer closeAdmin()
	}
	if walDir != "" {
		// Adopt any spilled sessions (from a handoff or a plain drain with the
		// same directory) so clients can Resume against this process.
		if sp, err := durable.ReadSessions(walDir); err != nil {
			fmt.Fprintf(os.Stderr, "session spill unreadable, clients will re-handshake: %v\n", err)
		} else if sp != nil {
			n, _ := srv.ImportSessions(sp)
			if err := durable.RemoveSessions(walDir); err != nil {
				fmt.Fprintf(os.Stderr, "session spill cleanup: %v\n", err)
			}
			fmt.Printf("adopted %d resumable sessions from spill\n", n)
		}
	}
	l, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	shared := make([]string, 0, len(ds.TargetQueries()))
	for _, q := range ds.TargetQueries() {
		shared = append(shared, q.Name)
	}
	fmt.Printf("listening on %s: %d shards, window width %d, shared queries %v\n",
		l.Addr(), o.shards, ds.Config.WindowWidth, shared)
	fmt.Printf("resilience: heartbeat %v (reap at 2x), resume window %v, replay ring up to %d answers/subscription\n",
		o.heartbeat, o.resumeWindow, o.replayBuffer)
	if o.budget > 0 {
		fmt.Printf("per-stream budget grant %g per epoch (policy %s), tenant stream quota %s\n",
			o.budget, o.budgetPolicy, quotaString(o.maxStreams))
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		if err != nil && !errors.Is(err, server.ErrServerClosed) {
			rt.Close()
			return err
		}
	}

	if o.handoffTo != "" {
		return handoffDrain(srv, rt, reg, start, o)
	}
	fmt.Printf("\ndraining (timeout %v) — new ingest refused, sessions told goodbye\n", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if walDir != "" {
		// Park session cores instead of retiring them so they can be spilled
		// beside the WAL below: a restart with the same -wal-dir adopts them
		// and clients Resume instead of starting over.
		srv.DrainForHandoff()
	} else {
		srv.Drain()
	}
	// CloseContext flushes in-flight windows through the WAL and cuts the
	// final checkpoint; once it returns no shard is alive, so nothing is
	// delivered into the sessions' replay rings any more.
	closeErr := rt.CloseContext(drainCtx)
	waitErr := srv.Wait(drainCtx)
	if waitErr != nil {
		fmt.Fprintf(os.Stderr, "drain timeout: remaining sessions force-closed\n")
	}
	if walDir != "" && closeErr == nil && waitErr == nil {
		if sp := srv.ExportSessions(); len(sp.Sessions) > 0 {
			if err := durable.WriteSessions(walDir, sp); err != nil {
				fmt.Fprintf(os.Stderr, "session spill: %v\n", err)
			} else {
				fmt.Printf("spilled %d resumable sessions beside the WAL\n", len(sp.Sessions))
			}
		}
	}

	// The shutdown report prints from the same CollectStatsz document the
	// /statsz endpoint serves, so the two views can never disagree.
	printServeReport(server.CollectStatsz(reg, rt, srv, time.Since(start)), o.budget > 0)
	if walDir != "" && closeErr == nil {
		fmt.Printf("\ndurable state checkpointed to %s — restart with the same -wal-dir to resume\n", walDir)
	}
	return closeErr
}

// handoffDrain is the rolling-restart exit path: quiesce at a pane boundary,
// spill the parked sessions beside the WAL, ship the whole frozen directory
// to the takeover peer, and exit 0 once the peer has verified and acked it.
// Any failure leaves the local directory authoritative — the operator
// restarts this side instead.
func handoffDrain(srv *server.Server, rt *runtime.Runtime, reg *metrics.Registry, start time.Time, o options) error {
	walDir := o.walDir
	fmt.Printf("\nhandoff drain (timeout %v) — freezing at a pane boundary, shipping partition to %s\n", o.drainTimeout, o.handoffTo)
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	freezeStart := time.Now()
	srv.DrainForHandoff()
	if err := srv.Wait(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "handoff drain timeout: remaining sessions force-closed\n")
	}
	if err := rt.Freeze(ctx); err != nil {
		return fmt.Errorf("handoff freeze: %w (durable state intact in %s)", err, walDir)
	}
	handoffPhase(reg, "freeze").ObserveSince(freezeStart)
	var spend float64
	if b := rt.Snapshot().Budget; b != nil {
		spend = float64(b.Spent)
	}
	spillStart := time.Now()
	sp := srv.ExportSessions()
	if err := durable.WriteSessions(walDir, sp); err != nil {
		return fmt.Errorf("handoff spill: %w", err)
	}
	handoffPhase(reg, "spill").ObserveSince(spillStart)
	shipStart := time.Now()
	conn, err := net.Dial("tcp", o.handoffTo)
	if err != nil {
		return fmt.Errorf("handoff dial: %w (durable state intact in %s)", err, walDir)
	}
	defer conn.Close()
	sum, err := server.SendHandoff(conn, walDir, o.handoffToken, o.listen, len(sp.Sessions), spend, server.HandoffCrashNone)
	if err != nil {
		return fmt.Errorf("handoff: %w (durable state intact in %s)", err, walDir)
	}
	handoffPhase(reg, "ship").ObserveSince(shipStart)
	fmt.Printf("handoff complete: %d files (%d bytes), %d sessions, frozen spend %.4g — peer acked\n",
		sum.Files, sum.Bytes, sum.Sessions, sum.Spend)
	printServeReport(server.CollectStatsz(reg, rt, srv, time.Since(start)), o.budget > 0)
	return nil
}

// acceptHandoff accepts exactly one inbound handoff on addr and stages it
// into walDir.
func acceptHandoff(addr, walDir, token string) (server.HandoffSummary, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return server.HandoffSummary{}, err
	}
	fmt.Printf("takeover: awaiting partition handoff on %s\n", l.Addr())
	conn, err := l.Accept()
	l.Close()
	if err != nil {
		return server.HandoffSummary{}, err
	}
	defer conn.Close()
	return server.ReceiveHandoff(conn, walDir, token)
}

func quotaString(n int) string {
	if n <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d streams", n)
}

// printServeReport is the final breakdown printed at shutdown: serving and
// resilience counters per tenant, latency summaries, and, under a budget,
// each tenant's live ε position. It prints from a CollectStatsz document —
// the exact payload the /statsz endpoint serves — so the report and a final
// scrape can never disagree.
func printServeReport(z server.Statsz, withBudget bool) {
	st := *z.Server
	fmt.Printf("\nserved %d connections (%d auth failures); sessions: %d parked, %d expired unresumed\n",
		st.ConnsTotal, st.AuthFailures, st.SessionsParked, st.SessionsExpired)
	if tot := z.Runtime.Totals(); tot.EventsIn > 0 {
		fmt.Printf("ingested %d events — %.0f events/s over %s\n",
			tot.EventsIn, z.EventsPerSec, z.Runtime.Uptime.Round(time.Millisecond))
	}
	if st.Flushes > 0 {
		fmt.Printf("answers delivered in %d socket writes — %.1f answers per flush\n", st.Flushes, z.AnswersPerFlush)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if withBudget {
		fmt.Fprintln(tw, "tenant\tstreams\tevents\tanswers\tdropped\tresumes\treplayed\tgaps\twr-timeouts\tspent eps\tmax stream\texhausted")
	} else {
		fmt.Fprintln(tw, "tenant\tstreams\tevents\tanswers\tdropped\tresumes\treplayed\tgaps\twr-timeouts")
	}
	for _, ts := range st.Tenants {
		if withBudget {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4g\t%.4g\t%d/%d\n",
				ts.Tenant, ts.Streams, ts.EventsIn, ts.AnswersSent, ts.AnswersDropped,
				ts.Resumes, ts.AnswersReplayed, ts.GapsSent, ts.WriteTimeouts,
				float64(ts.Spend.Spent), float64(ts.Spend.MaxStreamSpent),
				ts.Spend.Exhausted, ts.Spend.Streams)
		} else {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				ts.Tenant, ts.Streams, ts.EventsIn, ts.AnswersSent, ts.AnswersDropped,
				ts.Resumes, ts.AnswersReplayed, ts.GapsSent, ts.WriteTimeouts)
		}
	}
	tw.Flush()
	if len(z.Latencies) > 0 {
		fmt.Println("\nlatencies (ms):")
		ltw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(ltw, "metric\tcount\tmean\tp50\tp99\tmax")
		for _, l := range z.Latencies {
			fmt.Fprintf(ltw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\n", l.Metric, l.Count, l.MeanMs, l.P50Ms, l.P99Ms, l.MaxMs)
		}
		ltw.Flush()
	}
}

// runClient is the -connect mode: replay the synthetic feed to a server as
// one tenant, subscribed to every query visible to it, and report what came
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
	for q, tl := range tallies {
		tl.print(q)
	}
	if len(lastSpend) > 0 {
		var max float64
		for _, sp := range lastSpend {
			if sp > max {
				max = sp
			}
		}
		fmt.Printf("budget: answers carried spend for %d streams, max stream spend %.4g eps\n", len(lastSpend), max)
	}
	if n := c.Reconnects(); n > 0 || gaps > 0 {
		extent := fmt.Sprintf("%d answers declared lost", gapped)
		fmt.Printf("resilience: %d reconnects, %d duplicate answers suppressed, %d gap markers (%s)\n",
			n, c.DupsDropped(), gaps, extent)
	}
	return nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

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
		"Durable drain and rolling-restart phase durations: freeze (drain and pane-boundary quiesce), spill (session export), ship (directory transfer to the peer), receive (inbound transfer and verify).",
		metrics.L("phase", phase))
}

// runServer is the serve role: one shared runtime, many tenant connections,
// graceful drain on the first signal.
func runServer(o options) error {
	walDir := o.walDir
	// The server is always observed: one registry spans runtime,
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
	})
	if err != nil {
		return err
	}
	if o.adminAddr != "" {
		closeAdmin, err := startAdmin(o.adminAddr, server.NewAdmin(srv))
		if err != nil {
			rt.Close()
			return err
		}
		defer closeAdmin()
	}
	if walDir != "" {
		// Adopt any spilled sessions (from a handoff or a plain drain with the
		// same directory) so clients can Resume against this process.
		n, err := srv.Adopt(walDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "session spill: %v (clients without an adopted session re-handshake)\n", err)
		}
		if n > 0 {
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

	err = drain(srv, rt, reg, o)
	// The shutdown report prints from the same CollectStatsz document the
	// /statsz endpoint serves, so the two views can never disagree.
	printServeReport(server.CollectStatsz(srv, time.Since(start)), o.budget > 0)
	return err
}

// drain is the serve role's shutdown after the first signal, bounded by
// -drain-timeout. Without -wal-dir it refuses new ingest, closes the runtime
// — trailing partial windows are flushed and answered — and waits for the
// sessions. Under -wal-dir there is one sequence, whether or not a peer takes
// over: park the sessions, wait for them, freeze the runtime at per-stream
// pane boundaries, and spill the parked sessions beside the WAL. A frozen
// window is not published: its open panes travel in the final checkpoint,
// so the next process on the directory (a restart, or the -takeover peer
// that -handoff-to ships it to) serves it once, under its own index, instead
// of releasing the same interval a second time. Any failure leaves the
// local directory authoritative.
func drain(srv *server.Server, rt *runtime.Runtime, reg *metrics.Registry, o options) error {
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if o.walDir == "" {
		fmt.Printf("\ndraining (timeout %v) — new ingest refused, sessions told goodbye\n", o.drainTimeout)
		srv.Drain()
		// Once CloseContext returns no shard is alive, so nothing is
		// delivered into the sessions' replay rings any more.
		closeErr := rt.CloseContext(ctx)
		if err := srv.Wait(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "drain timeout: remaining sessions force-closed\n")
		}
		return closeErr
	}
	walDir := o.walDir
	fmt.Printf("\ndraining (timeout %v) — sessions parked, freezing at a pane boundary\n", o.drainTimeout)
	freezeStart := time.Now()
	srv.DrainForHandoff()
	if err := srv.Wait(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain timeout: remaining sessions force-closed\n")
	}
	if err := rt.Freeze(ctx); err != nil {
		return fmt.Errorf("freeze: %w (durable state intact in %s)", err, walDir)
	}
	handoffPhase(reg, "freeze").ObserveSince(freezeStart)
	spillStart := time.Now()
	sessions, err := srv.Spill(walDir)
	if err != nil {
		return fmt.Errorf("session spill: %w (durable state intact in %s)", err, walDir)
	}
	handoffPhase(reg, "spill").ObserveSince(spillStart)
	if o.handoffTo == "" {
		fmt.Printf("spilled %d resumable sessions; durable state frozen in %s — restart with the same -wal-dir to resume\n", sessions, walDir)
		return nil
	}
	var spend float64
	if b := rt.Snapshot().Budget; b != nil {
		spend = float64(b.Spent)
	}
	shipStart := time.Now()
	conn, err := net.Dial("tcp", o.handoffTo)
	if err != nil {
		return fmt.Errorf("handoff dial: %w (durable state intact in %s)", err, walDir)
	}
	defer conn.Close()
	sum, err := server.SendHandoff(conn, walDir, o.handoffToken, o.listen, sessions, spend, server.HandoffCrashNone)
	if err != nil {
		return fmt.Errorf("handoff: %w (durable state intact in %s)", err, walDir)
	}
	handoffPhase(reg, "ship").ObserveSince(shipStart)
	fmt.Printf("handoff to %s complete: %d files (%d bytes), %d sessions, frozen spend %.4g — peer acked\n",
		o.handoffTo, sum.Files, sum.Bytes, sum.Sessions, sum.Spend)
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
// resilience counters per tenant (under a budget, each tenant's live ε
// position), the runtime's serving counters per shard, and latency
// summaries. It prints from a CollectStatsz document — the exact payload the
// /statsz endpoint serves — so the report and a final scrape can never
// disagree.
func printServeReport(z server.Statsz, withBudget bool) {
	st := *z.Server
	fmt.Printf("\nserved %d connections (%d auth failures); sessions: %d parked, %d expired unresumed\n",
		st.ConnsTotal, st.AuthFailures, st.SessionsParked, st.SessionsExpired)
	tot := z.Runtime.Totals()
	if tot.EventsIn > 0 {
		fmt.Printf("ingested %d events — %.0f events/s over %s\n",
			tot.EventsIn, z.EventsPerSec, z.Runtime.Uptime.Round(time.Millisecond))
	}
	if st.Flushes > 0 {
		fmt.Printf("answers and ingest acks delivered in %d socket writes — %.1f answers per flush\n", st.Flushes, z.AnswersPerFlush)
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

	// Per shard: what each served, and what the lateness policy and the
	// Horizon bound dropped.
	stw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(stw, "\nshard\tstreams\tevents\twindows\tpanes\tanswers to sinks\tdropped(late/future)")
	for _, s := range z.Runtime.Shards {
		fmt.Fprintf(stw, "%d\t%d\t%d\t%d\t%d\t%d\t%d/%d\n",
			s.Shard, s.Streams, s.EventsIn, s.WindowsClosed, s.PanesClosed, s.AnswersEmitted,
			s.DroppedLate, s.DroppedFuture)
	}
	fmt.Fprintf(stw, "total\t%d\t%d\t%d\t%d\t%d\t%d/%d\n",
		tot.Streams, tot.EventsIn, tot.WindowsClosed, tot.PanesClosed, tot.AnswersEmitted,
		tot.DroppedLate, tot.DroppedFuture)
	stw.Flush()
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

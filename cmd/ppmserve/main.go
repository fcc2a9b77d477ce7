// Command ppmserve demonstrates the sharded streaming runtime: it replays
// synthetic traffic (Algorithm 2) across many concurrent streams, serves the
// dataset's target queries behind the uniform PPM, and prints throughput and
// the per-shard serving counters. With -churn it also exercises the dynamic
// control plane, registering and unregistering a probe query at the given
// rate while traffic flows.
//
// Usage:
//
//	ppmserve -shards 8 -streams 32 -windows 500 -eps 1.0 -backpressure block
//	ppmserve -churn 10
//	ppmserve -batch 256 -cpuprofile cpu.out -memprofile mem.out
//	ppmserve -slide 25 -snap 2s
//	ppmserve -budget 100 -budget-policy throttle
//	ppmserve -budget 100 -wal-dir /var/lib/ppm/wal -fsync interval -checkpoint-every 5s
//	ppmserve -listen :7070 -wal-dir /var/lib/ppm/b -takeover :7071 -handoff-token s3cr3t
//	ppmserve -listen :7070 -wal-dir /var/lib/ppm/a -handoff-to host:7071 -handoff-token s3cr3t
//
// With -slide less than the window width the runtime serves sliding windows
// assembled from panes of the slide width (see README "Sliding windows").
// -snap prints a periodic serving snapshot line — events, windows, panes,
// overlap, answers — while traffic flows.
//
// With -budget the runtime runs the privacy-budget ledger (see README
// "Privacy accounting"): each stream is granted that much pattern-level ε
// per budget epoch, every released window charges -eps against it, and
// -budget-policy (deny | suppress | throttle | rotate-epoch) selects the
// exhaustion behavior. The final report then includes the ledger snapshot.
//
// With -wal-dir the runtime runs durably (see README "Durability"): every
// released window's ledger charge is written ahead to a WAL in that directory
// before the answer is published, -fsync (interval | always | off) selects
// the sync policy, and -checkpoint-every snapshots windower and ledger state
// on that cadence. Restarting against the same directory recovers: the start
// banner then reports the restored checkpoint, the replayed WAL tail, and the
// recovered privacy spend, and serving resumes from the restored budget
// epoch.
//
// SIGINT/SIGTERM shut the server down gracefully: producers stop, in-flight
// windows are drained and flushed through CloseContext — under -wal-dir the
// drain also writes a final checkpoint and spills resumable sessions beside
// the WAL — and the final report (including the budget snapshot) is printed.
// A second signal aborts.
//
// With -handoff-to the first signal performs a rolling restart instead of a
// plain drain (see README "Rolling restarts"): the server freezes at a pane
// boundary, spills parked sessions, streams the whole durable directory to a
// peer started with -takeover, and exits 0 only after the peer verifies and
// acks the transfer. The peer recovers the shipped partition — refusing to
// start if recovered spend would under-count the source's frozen spend —
// adopts the spilled sessions, and -reconnect clients resume against it with
// session tokens and sequence spaces intact.
//
// The -cpuprofile/-memprofile flags write pprof profiles of the serving run,
// so hot-path regressions can be diagnosed in the demo binary with
// `go tool pprof`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	goruntime "runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
	"patterndp/internal/server"
	"patterndp/internal/synth"
)

// options is every ppmserve flag, filled once by parseFlags.
type options struct {
	// Replay shape and reporting.
	streams, windows, batch int
	seed                    int64
	churn                   float64
	snap                    time.Duration
	cpuProf, memProf        string
	// Runtime configuration; see runtimeConfig.
	shards, buffer             int
	eps, budget, traceSample   float64
	lateness, horizon, slide   int64
	backpressure, budgetPolicy string
	walDir, fsync              string
	ckptEvery                  time.Duration
	// Network modes.
	adminAddr, listen, connect, tenant    string
	maxStreams, replayBuffer, maxParked   int
	rateLimit                             float64
	drainTimeout, heartbeat, resumeWindow time.Duration
	reconnect                             bool
	// Rolling restart: the draining side ships to handoffTo, the adopting
	// side accepts on takeover, handoffToken is their shared secret.
	handoffTo, takeover, handoffToken string
}

// parseFlags parses the command line into options on its own FlagSet. It
// checks nothing across flags — runtimeConfig does.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("ppmserve", flag.ContinueOnError)
	fs.IntVar(&o.shards, "shards", 8, "serving shards")
	fs.IntVar(&o.streams, "streams", 32, "concurrent event streams")
	fs.IntVar(&o.windows, "windows", 500, "windows generated per stream")
	fs.Float64Var(&o.eps, "eps", 1.0, "pattern-level privacy budget")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.buffer, "buffer", 256, "per-shard ingest buffer")
	fs.StringVar(&o.backpressure, "backpressure", "block", "backpressure policy: block | drop-oldest")
	fs.Int64Var(&o.lateness, "lateness", 0, "allowed lateness (>0 enables the reorder buffer)")
	fs.Int64Var(&o.horizon, "horizon", 0, "max forward timestamp jump per stream (0 = unbounded)")
	fs.Float64Var(&o.churn, "churn", 0, "control-plane churn: probe-query (un)registrations per second")
	fs.IntVar(&o.batch, "batch", 1, "events per IngestBatch call (1 = per-event Ingest)")
	fs.Int64Var(&o.slide, "slide", 0, "window slide in logical time (0 = window width, i.e. tumbling; must divide the width)")
	fs.DurationVar(&o.snap, "snap", 0, "print a periodic serving snapshot at this interval (0 = off)")
	fs.Float64Var(&o.budget, "budget", 0, "per-stream privacy-budget grant per epoch (0 = accounting off)")
	fs.StringVar(&o.budgetPolicy, "budget-policy", "deny", "budget exhaustion policy: deny | suppress | throttle | rotate-epoch")
	fs.StringVar(&o.walDir, "wal-dir", "", "durable-state directory: WAL + checkpoints; recovers on start if non-empty (empty = durability off)")
	fs.StringVar(&o.fsync, "fsync", "interval", "WAL sync policy under -wal-dir: interval | always | off")
	fs.DurationVar(&o.ckptEvery, "checkpoint-every", 5*time.Second, "background checkpoint cadence under -wal-dir (0 = only on drain)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the serving run to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile taken after the run to this file")

	fs.StringVar(&o.adminAddr, "admin", "", "serve the admin HTTP endpoint (/metrics /healthz /readyz /statsz /debug/pprof) on this address (e.g. :9090)")
	fs.Float64Var(&o.traceSample, "trace-sample", 0, "fraction of ingest batches lifecycle-traced end to end (0 = off, 1 = every batch); traced batches emit ppm.trace slog records and feed the ppm_trace_* histograms")

	fs.StringVar(&o.listen, "listen", "", "serve tenants over TCP on this address instead of replaying locally (e.g. :7070)")
	fs.StringVar(&o.connect, "connect", "", "run as a tenant client against a -listen server at this address")
	fs.StringVar(&o.tenant, "tenant", "tenant-a", "tenant token presented by -connect")
	fs.IntVar(&o.maxStreams, "max-streams", 0, "per-tenant distinct-stream quota under -listen (0 = unlimited)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain bound under -listen: in-flight flush and session wind-down")
	fs.DurationVar(&o.heartbeat, "heartbeat", 10*time.Second, "liveness heartbeat interval under -listen; silent peers are reaped after 2x this (negative = off)")
	fs.DurationVar(&o.resumeWindow, "resume-window", 30*time.Second, "how long a disconnected session's replay state is kept for resume under -listen (negative = off)")
	fs.IntVar(&o.replayBuffer, "replay-buffer", 256, "per-subscription replay ring cap under -listen, allocated in 256-answer chunks as answers arrive (~128 B per retained answer); overflow surfaces as explicit gap markers")
	fs.BoolVar(&o.reconnect, "reconnect", false, "under -connect: auto-reconnect with backoff and resume the session after transport failures")
	fs.Float64Var(&o.rateLimit, "rate-limit", 0, "per-tenant ingest rate limit in events/s under -listen (0 = unlimited)")
	fs.IntVar(&o.maxParked, "max-parked", 0, "server-wide cap on parked (disconnected, resumable) sessions under -listen; oldest evicted (0 = unlimited)")
	fs.StringVar(&o.handoffTo, "handoff-to", "", "under -listen with -wal-dir: on the first signal, freeze and hand the partition off to a -takeover peer at this address, then exit 0")
	fs.StringVar(&o.takeover, "takeover", "", "under -listen with -wal-dir: before serving, accept one partition handoff on this address into -wal-dir and adopt it")
	fs.StringVar(&o.handoffToken, "handoff-token", "", "shared secret authenticating -handoff-to against -takeover (empty = unauthenticated)")
	return o, fs.Parse(args)
}

// runtimeConfig checks the flags against each other and maps them onto the
// runtime configuration. It is pure: the fields only a generated dataset or a
// live registry can supply (WindowWidth, Private, Targets, Metrics) are left
// for buildRuntime.
func (o options) runtimeConfig() (runtime.Config, error) {
	switch {
	case o.listen != "" && o.connect != "":
		return runtime.Config{}, errors.New("-listen and -connect are mutually exclusive")
	case (o.handoffTo != "" || o.takeover != "") && (o.listen == "" || o.walDir == ""):
		return runtime.Config{}, errors.New("-handoff-to/-takeover require -listen and -wal-dir")
	case o.batch < 1:
		return runtime.Config{}, fmt.Errorf("batch size %d must be >= 1", o.batch)
	case o.replayBuffer < 0:
		return runtime.Config{}, fmt.Errorf("-replay-buffer %d must be >= 0", o.replayBuffer)
	}
	policy, err := account.ParsePolicy(o.budgetPolicy)
	if err != nil {
		return runtime.Config{}, err
	}
	eps := dp.Epsilon(o.eps)
	cfg := runtime.Config{
		Shards: o.shards,
		Slide:  event.Timestamp(o.slide),
		// The set-aware factory keeps the budget split coherent across
		// control-plane epochs (and enables RegisterPrivate).
		MechanismFor: func(_ int, private []core.PatternType) (core.Mechanism, error) {
			return core.NewUniformPPM(eps, private...)
		},
		Seed:         o.seed,
		Horizon:      event.Timestamp(o.horizon),
		ShardBuffer:  o.buffer,
		Budget:       dp.Epsilon(o.budget),
		BudgetPolicy: policy,
		TraceSample:  o.traceSample,
	}
	switch o.backpressure {
	case "block":
		cfg.Backpressure = runtime.Block
	case "drop-oldest":
		cfg.Backpressure = runtime.DropOldest
	default:
		return runtime.Config{}, fmt.Errorf("unknown backpressure policy %q", o.backpressure)
	}
	if o.lateness > 0 {
		cfg.Lateness = runtime.ReorderBuffer
		cfg.AllowedLateness = event.Timestamp(o.lateness)
	}
	if o.walDir != "" {
		fp, err := runtime.ParseFsyncPolicy(o.fsync)
		if err != nil {
			return runtime.Config{}, err
		}
		cfg.Durability = &runtime.DurabilityConfig{
			Dir:             o.walDir,
			Fsync:           fp,
			CheckpointEvery: o.ckptEvery,
		}
	}
	return cfg, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		// The FlagSet has already printed the error and the usage.
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	// Reject a bad flag combination before any mode starts listening,
	// generating or profiling.
	if _, err = o.runtimeConfig(); err == nil {
		err = profiledRun(o)
	}
	if err == nil && o.memProf != "" {
		err = writeHeapProfile(o.memProf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppmserve:", err)
		os.Exit(1)
	}
}

// profiledRun runs the selected mode under -cpuprofile. The profile defers
// sit on a frame that returns before os.Exit, so a serving error still
// flushes a complete CPU profile.
func profiledRun(o options) error {
	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	switch {
	case o.listen != "":
		return runServer(o)
	case o.connect != "":
		return runClient(o)
	}
	return run(o)
}

// writeHeapProfile writes the -memprofile heap profile, taken after the run.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	goruntime.GC()
	return pprof.WriteHeapProfile(f)
}

// buildRuntime starts the runtime shared by the replay and -listen modes: the
// synthetic dataset supplies the window width, private types, and (shared)
// target queries; runtimeConfig supplies everything else. reg (which may be
// nil) receives the runtime's metrics.
func buildRuntime(o options, reg *metrics.Registry) (*runtime.Runtime, *synth.Dataset, error) {
	cfg, err := o.runtimeConfig()
	if err != nil {
		return nil, nil, err
	}
	ds, err := dataset(o)
	if err != nil {
		return nil, nil, err
	}
	cfg.WindowWidth = ds.Config.WindowWidth
	cfg.Private = ds.PrivateTypes()
	cfg.Targets = ds.TargetQueries()
	cfg.Metrics = reg
	rt, err := runtime.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if rec := rt.Recovery(); rec != nil {
		// The recovery summary: where serving resumes from, how much of it
		// came from WAL replay, and the spend delta the replay re-charged on
		// top of the checkpoint.
		fmt.Printf("recovered %s: checkpoint %d, budget epoch %d (control %d), %d streams\n",
			o.walDir, rec.CheckpointID, rec.BudgetEpoch, rec.Epoch, rec.Streams)
		fmt.Printf("recovered spend: %.4g restored + %.4g replayed from %d WAL records (%d registrations)\n",
			float64(rec.RestoredSpend), float64(rec.ReplayedSpend), rec.ReplayedRecords, rec.Registrations)
		if rec.Truncated || rec.SkippedCheckpoints > 0 {
			fmt.Printf("recovered after crash: torn WAL tail ignored (%d corrupt checkpoints skipped)\n",
				rec.SkippedCheckpoints)
		}
	}
	return rt, ds, nil
}

// dataset generates the synthetic feed the flags describe.
func dataset(o options) (*synth.Dataset, error) {
	scfg := synth.DefaultConfig(o.seed)
	scfg.NumWindows = o.windows
	return synth.Generate(scfg)
}

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

// run is the default mode: replay the synthetic feed through a local runtime
// and report what it served.
func run(o options) error {
	// Graceful shutdown: the first SIGINT/SIGTERM cancels the producers so
	// CloseContext can drain in-flight windows and the final report (with
	// the budget snapshot) still prints; a second signal aborts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Local replay only pays for observability when asked: the registry
	// exists iff -admin or -trace-sample is set.
	var reg *metrics.Registry
	if o.adminAddr != "" || o.traceSample > 0 {
		reg = metrics.NewRegistry()
	}
	rt, ds, err := buildRuntime(o, reg)
	if err != nil {
		return err
	}
	if o.adminAddr != "" {
		closeAdmin, err := startAdmin(o.adminAddr, server.NewAdmin(server.AdminConfig{Registry: reg, Runtime: rt}))
		if err != nil {
			rt.Close()
			return err
		}
		defer closeAdmin()
	}
	base := ds.Events()
	targets := ds.TargetQueries()
	if o.slide > 0 && event.Timestamp(o.slide) != ds.Config.WindowWidth {
		fmt.Printf("serving %d streams x %d events across %d shards, eps=%g — sliding windows width %d slide %d (overlap %d, pane-assembled)\n",
			o.streams, len(base), o.shards, o.eps, ds.Config.WindowWidth, o.slide, rt.Snapshot().Overlap)
	} else {
		fmt.Printf("serving %d streams x %d events (%d windows each) across %d shards, eps=%g\n",
			o.streams, len(base), o.windows, o.shards, o.eps)
	}

	// Periodic serving snapshot: one line per interval with the pane and
	// overlap counters alongside the usual serving totals.
	snapStop := make(chan struct{})
	var snapper sync.WaitGroup
	if o.snap > 0 {
		snapper.Add(1)
		go func() {
			defer snapper.Done()
			tick := time.NewTicker(o.snap)
			defer tick.Stop()
			for {
				select {
				case <-snapStop:
					return
				case <-tick.C:
				}
				st := rt.Snapshot()
				tot := st.Totals()
				fmt.Printf("snapshot t=%v events=%d windows=%d panes=%d overlap=%d to-sinks=%d dropped=%d/%d/%d\n",
					st.Uptime.Round(time.Millisecond), tot.EventsIn, tot.WindowsClosed, tot.PanesClosed,
					st.Overlap, tot.AnswersEmitted, tot.DroppedLate, tot.DroppedFuture, tot.DroppedIngest)
			}
		}()
	}

	// One subscriber per target query, counting detections (and, under a
	// budget, suppressed placeholder releases).
	tallies := make([]tally, len(targets))
	var consumers sync.WaitGroup
	for qi, q := range targets {
		// Subscribe before any producer starts so no answer is missed.
		sub, err := rt.Subscribe(q.Name)
		if err != nil {
			return err
		}
		consumers.Add(1)
		go func(qi int) {
			defer consumers.Done()
			for a := range sub.C() {
				tallies[qi].answers++
				if a.Suppressed {
					tallies[qi].suppressed++
				} else if a.Detected {
					tallies[qi].detected++
				}
			}
		}(qi)
	}

	// Control-plane churn: register and unregister a probe query at the
	// requested rate while traffic flows, bumping the epoch each time.
	churnStop := make(chan struct{})
	var churner sync.WaitGroup
	if o.churn > 0 {
		probe := cep.Query{Name: "churn-probe", Pattern: ds.TargetQueries()[0].Pattern, Window: ds.Config.WindowWidth}
		tick := time.NewTicker(time.Duration(float64(time.Second) / o.churn))
		churner.Add(1)
		go func() {
			defer churner.Done()
			defer tick.Stop()
			registered := false
			for {
				select {
				case <-churnStop:
					return
				case <-tick.C:
				}
				var err error
				if registered {
					_, err = rt.UnregisterQuery(probe)
				} else {
					_, err = rt.RegisterQuery(probe)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "churn:", err)
					return
				}
				registered = !registered
			}
		}()
	}

	// One producer per stream, replaying the synthetic feed under its own
	// stream key — batched through IngestBatch when -batch > 1. The signal
	// context cancels producers mid-feed on SIGINT/SIGTERM.
	var producers sync.WaitGroup
	for i := 0; i < o.streams; i++ {
		producers.Add(1)
		go func(i int) {
			defer producers.Done()
			key := fmt.Sprintf("stream-%03d", i)
			buf := make([]event.Event, 0, o.batch)
			flush := func() bool {
				if len(buf) == 0 {
					return true
				}
				if err := rt.IngestBatchContext(ctx, buf); err != nil {
					if !errors.Is(err, context.Canceled) {
						fmt.Fprintln(os.Stderr, "ingest:", err)
					}
					return false
				}
				buf = buf[:0]
				return true
			}
			for _, e := range base {
				buf = append(buf, e.WithSource(key))
				if len(buf) == o.batch && !flush() {
					return
				}
			}
			flush()
		}(i)
	}
	producers.Wait()
	close(churnStop)
	churner.Wait()
	close(snapStop)
	snapper.Wait()
	interrupted := ctx.Err() != nil
	if interrupted {
		fmt.Println("\ninterrupted — draining in-flight windows (signal again to abort)")
	}
	// Drain and flush through CloseContext so trailing windows are still
	// answered; a second signal (fresh NotifyContext) abandons the wait.
	// Keep the Close error for after the report: on a shard failure the
	// counters below are exactly what explains it.
	closeCtx, closeStop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer closeStop()
	closeErr := rt.CloseContext(closeCtx)
	if closeErr != nil && errors.Is(closeErr, context.Canceled) {
		return fmt.Errorf("aborted while draining")
	}
	consumers.Wait()

	st := rt.Snapshot()
	tot := st.Totals()
	fmt.Printf("\nserved %d events in %v — %.0f events/s\n", tot.EventsIn, st.Uptime.Round(1000000), st.Throughput())
	if o.churn > 0 {
		// Idle shards never reach a window boundary and so never apply an
		// epoch; report convergence over the shards that actually served.
		applied, first := runtime.Epoch(0), true
		for _, s := range st.Shards {
			if s.EventsIn == 0 {
				continue
			}
			if first || s.Epoch < applied {
				applied, first = s.Epoch, false
			}
		}
		fmt.Printf("control-plane epochs: %d (slowest serving shard applied %d)\n", st.Epoch, applied)
	}
	if st.Overlap > 1 {
		fmt.Printf("windows: %d served at overlap %d from %d panes\n", tot.WindowsClosed, st.Overlap, tot.PanesClosed)
	}
	bal := st.Balance()
	fmt.Printf("shard balance: mean %.0f events/shard, stddev %.0f, min %.0f, max %.0f\n",
		bal.Mean, bal.StdDev, bal.Min, bal.Max)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nshard\tstreams\tevents\twindows\tpanes\tanswers to sinks\tdropped(late/future/ingest)")
	for _, s := range st.Shards {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d/%d/%d\n",
			s.Shard, s.Streams, s.EventsIn, s.WindowsClosed, s.PanesClosed, s.AnswersEmitted,
			s.DroppedLate, s.DroppedFuture, s.DroppedIngest)
	}
	fmt.Fprintf(tw, "total\t%d\t%d\t%d\t%d\t%d\t%d/%d/%d\n",
		tot.Streams, tot.EventsIn, tot.WindowsClosed, tot.PanesClosed, tot.AnswersEmitted,
		tot.DroppedLate, tot.DroppedFuture, tot.DroppedIngest)
	tw.Flush()
	if tot.Failed {
		fmt.Println("WARNING: one or more shards failed; see the Close error")
	}

	fmt.Println("\nper-query detection rates:")
	for qi, q := range targets {
		tallies[qi].print(q.Name)
	}
	if b := st.Budget; b != nil {
		fmt.Printf("\nprivacy budget (policy %s, epoch %d): grant %g per stream, charge %g per window\n",
			b.Policy, b.Epoch, float64(b.Grant), float64(b.Charge))
		fmt.Printf("  spend: total %.4g (retired %.4g), max stream %.4g, w-event composed max %.4g (overlap %d)\n",
			float64(b.Spent), float64(b.Retired), float64(b.MaxStreamSpent), float64(b.MaxComposed), b.Overlap)
		fmt.Printf("  decisions: %d admitted, %d denied, %d suppressed, %d throttled; %d/%d streams exhausted; %d rotations\n",
			b.Admitted, b.Denied, b.Suppressed, b.Throttled, b.Exhausted, b.Streams, b.Rotations)
		for _, q := range b.PerQuery {
			fmt.Printf("  query %-12s attributed eps %.4g\n", q.Query, float64(q.Eps))
		}
	}
	if o.walDir != "" && closeErr == nil {
		fmt.Printf("\ndurable state checkpointed to %s (fsync %s) — restart with the same -wal-dir to resume\n", o.walDir, o.fsync)
	}
	return closeErr
}

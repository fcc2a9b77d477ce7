// Command ppmserve serves the sharded streaming runtime to tenants over the
// wire protocol (the paper's trusted CEP engine, Fig. 2), or connects to such
// a server as one tenant. Each role is a subcommand that parses only its own
// flags; a flag of the other role, or a first argument other than serve or
// client, is a usage error (exit 2). Both roles take -windows and -seed,
// which select the synthetic dataset (Algorithm 2): the server protects its
// private pattern types and serves its target queries to every tenant, the
// client replays its events under -streams stream keys. -cpuprofile and
// -memprofile profile either role's run.
//
// Usage:
//
//	ppmserve serve -listen :7070 -shards 8 -eps 1.0 -buffer 256
//	ppmserve serve -listen :7070 -slide 25 -budget 100 -budget-policy throttle
//	ppmserve serve -listen :7070 -budget 100 -wal-dir /var/lib/ppm/wal -fsync interval -checkpoint-every 5s
//	ppmserve serve -listen :7070 -heartbeat 5s -resume-window 1m -replay-buffer 512 -admin :9090
//	ppmserve serve -listen :7070 -wal-dir /var/lib/ppm/b -takeover :7071 -handoff-token s3cr3t
//	ppmserve serve -listen :7070 -wal-dir /var/lib/ppm/a -handoff-to host:7071 -handoff-token s3cr3t
//	ppmserve client -connect localhost:7070 -tenant alice -streams 8 -windows 200 -batch 256 -reconnect
//
// With -slide below the window width the server serves pane-assembled
// sliding windows; -budget runs the privacy-budget ledger under
// -budget-policy; -wal-dir makes it durable, so a restart against the same
// directory recovers spend and adopts the sessions the last drain spilled
// beside the WAL; -heartbeat, -resume-window and -replay-buffer shape session
// resilience, and a client with -reconnect resumes across transport failures
// (README: "Sliding windows", "Privacy accounting", "Durability",
// "Resilience").
//
// SIGINT/SIGTERM drain the server within -drain-timeout and print the final
// report: serving, resilience counters and ε spend per tenant, latency
// summaries, and serving counters per shard. With -handoff-to the first
// signal performs a rolling restart instead (README "Rolling restarts"): the
// server freezes at a pane boundary, spills its sessions, ships the durable
// directory to a peer started with -takeover, and exits 0 once the peer acks.
// The peer refuses to start if its recovered spend would under-count the
// source's frozen spend.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
	"patterndp/internal/synth"
)

const usage = `usage:
  ppmserve serve -listen ADDR [flags]     serve tenants over TCP
  ppmserve client -connect ADDR [flags]   feed the synthetic dataset to a server as one tenant
Run "ppmserve serve -h" or "ppmserve client -h" for a role's flags.`

// options holds both roles' flags, filled once by parseFlags; each role
// registers only the flags it reads.
type options struct {
	// Both roles: the synthetic dataset and profiling.
	windows          int
	seed             int64
	cpuProf, memProf string
	// serve: the runtime configuration (see runtimeConfig) and the serving
	// layer.
	listen                                string
	shards, buffer                        int
	eps, budget, traceSample              float64
	lateness, horizon, slide              int64
	budgetPolicy                          string
	walDir, fsync                         string
	ckptEvery                             time.Duration
	adminAddr                             string
	maxStreams, replayBuffer, maxParked   int
	rateLimit                             float64
	drainTimeout, heartbeat, resumeWindow time.Duration
	// Rolling restart: the draining side ships to handoffTo, the adopting
	// side accepts on takeover, handoffToken is their shared secret.
	handoffTo, takeover, handoffToken string
	// client.
	connect, tenant string
	streams, batch  int
	reconnect       bool
}

// parseFlags parses one role's command line into options on its own FlagSet:
// the shared flags, then only the role's own. It checks nothing across flags
// — check does.
func parseFlags(role string, args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("ppmserve "+role, flag.ContinueOnError)
	// -windows is shared because Algorithm 2 draws the private and target
	// patterns after the windows from the same rng: the window count changes
	// which patterns the server protects and serves.
	fs.IntVar(&o.windows, "windows", 500, "windows of the synthetic dataset per stream")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile taken after the run to this file")
	switch role {
	case "serve":
		fs.StringVar(&o.listen, "listen", "", "serve tenants over TCP on this address (required, e.g. :7070)")
		fs.IntVar(&o.shards, "shards", 8, "serving shards")
		fs.Float64Var(&o.eps, "eps", 1.0, "pattern-level privacy budget")
		fs.IntVar(&o.buffer, "buffer", 256, "per-shard ingest buffer in messages; a session whose shard is full waits for it")
		fs.Int64Var(&o.lateness, "lateness", 0, "allowed lateness (>0 enables the reorder buffer)")
		fs.Int64Var(&o.horizon, "horizon", 0, "max forward timestamp jump per stream (0 = unbounded)")
		fs.Int64Var(&o.slide, "slide", 0, "window slide in logical time (0 = window width, i.e. tumbling; must divide the width)")
		fs.Float64Var(&o.budget, "budget", 0, "per-stream privacy-budget grant per epoch (0 = accounting off)")
		fs.StringVar(&o.budgetPolicy, "budget-policy", "deny", "budget exhaustion policy, acting on the exhausted stream alone: deny | suppress | throttle")
		fs.StringVar(&o.walDir, "wal-dir", "", "durable-state directory: WAL + checkpoints + session spill; recovers on start if non-empty (empty = durability off)")
		fs.StringVar(&o.fsync, "fsync", "interval", "WAL sync policy under -wal-dir: interval | always | off")
		fs.DurationVar(&o.ckptEvery, "checkpoint-every", 5*time.Second, "background checkpoint cadence under -wal-dir (0 = only on drain)")
		fs.StringVar(&o.adminAddr, "admin", "", "serve the admin HTTP endpoint (/metrics /healthz /readyz /statsz /debug/pprof) on this address (e.g. :9090)")
		fs.Float64Var(&o.traceSample, "trace-sample", 0, "fraction of ingest batches lifecycle-traced end to end (0 = off, 1 = every batch); traced batches emit ppm.trace slog records and feed the ppm_trace_* histograms")
		fs.IntVar(&o.maxStreams, "max-streams", 0, "per-tenant distinct-stream quota (0 = unlimited)")
		fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain bound: in-flight flush and session wind-down")
		fs.DurationVar(&o.heartbeat, "heartbeat", 10*time.Second, "liveness heartbeat interval; silent peers are reaped after 2x this (negative = off)")
		fs.DurationVar(&o.resumeWindow, "resume-window", 30*time.Second, "how long a disconnected session's replay state is kept for resume (negative = off)")
		fs.IntVar(&o.replayBuffer, "replay-buffer", 256, "per-subscription replay ring cap, allocated in 256-answer chunks as answers arrive (~128 B per retained answer); overflow surfaces as explicit gap markers")
		fs.Float64Var(&o.rateLimit, "rate-limit", 0, "per-tenant ingest rate limit in events/s (0 = unlimited)")
		fs.IntVar(&o.maxParked, "max-parked", 0, "server-wide cap on parked (disconnected, resumable) sessions; oldest evicted (0 = unlimited)")
		fs.StringVar(&o.handoffTo, "handoff-to", "", "under -wal-dir: on the first signal, freeze and hand the partition off to a -takeover peer at this address, then exit 0")
		fs.StringVar(&o.takeover, "takeover", "", "under -wal-dir: before serving, accept one partition handoff on this address into -wal-dir and adopt it")
		fs.StringVar(&o.handoffToken, "handoff-token", "", "shared secret authenticating -handoff-to against -takeover (required with either)")
	case "client":
		fs.StringVar(&o.connect, "connect", "", "address of the ppmserve server to feed (required)")
		fs.StringVar(&o.tenant, "tenant", "tenant-a", "tenant token presented to the server")
		fs.IntVar(&o.streams, "streams", 32, "event streams replayed, one after another")
		fs.IntVar(&o.batch, "batch", 1, "events per ingest request")
		fs.BoolVar(&o.reconnect, "reconnect", false, "auto-reconnect with backoff and resume the session after transport failures")
	default:
		return o, fmt.Errorf("unknown subcommand %q", role)
	}
	return o, fs.Parse(args)
}

// check rejects a bad flag combination before the role listens, connects or
// profiles.
func (o options) check(role string) error {
	if role == "serve" {
		_, err := o.runtimeConfig()
		return err
	}
	switch {
	case o.connect == "":
		return errors.New("-connect is required")
	case o.batch < 1:
		return fmt.Errorf("batch size %d must be >= 1", o.batch)
	}
	return nil
}

// runtimeConfig checks the serve flags against each other and maps them onto
// the runtime configuration. It is pure: the fields only a generated dataset
// or a live registry can supply (WindowWidth, Private, Targets, Metrics) are
// left for buildRuntime.
func (o options) runtimeConfig() (runtime.Config, error) {
	switch {
	case o.listen == "":
		return runtime.Config{}, errors.New("-listen is required")
	case (o.handoffTo != "" || o.takeover != "") && o.walDir == "":
		return runtime.Config{}, errors.New("-handoff-to/-takeover require -wal-dir")
	case (o.handoffTo != "" || o.takeover != "") && o.handoffToken == "":
		// An unauthenticated takeover would adopt any peer's partition,
		// including a ledger that books less spend than was released.
		return runtime.Config{}, errors.New("-handoff-to/-takeover require -handoff-token")
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
		// control-plane epochs; the private set is the server's own (no
		// tenant registers one over the wire).
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
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	role := os.Args[1]
	o, err := parseFlags(role, os.Args[2:])
	if err != nil {
		// The FlagSet has already printed the error and the role's flags;
		// an unknown role gets the top-level usage.
		switch {
		case errors.Is(err, flag.ErrHelp):
			os.Exit(0)
		case role != "serve" && role != "client":
			fmt.Fprintf(os.Stderr, "ppmserve: %v\n%s\n", err, usage)
		}
		os.Exit(2)
	}
	run := runClient
	if role == "serve" {
		run = runServer
	}
	if err = o.check(role); err == nil {
		err = profiled(o, run)
	}
	if err == nil && o.memProf != "" {
		err = writeHeapProfile(o.memProf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppmserve:", err)
		os.Exit(1)
	}
}

// profiled runs the role under -cpuprofile. The profile defers sit on a
// frame that returns before os.Exit, so a serving error still flushes a
// complete CPU profile.
func profiled(o options, run func(options) error) error {
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

// buildRuntime starts the server's runtime: the synthetic dataset supplies
// the window width, private types, and (shared) target queries;
// runtimeConfig supplies everything else. reg (which may be nil) receives the
// runtime's metrics.
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

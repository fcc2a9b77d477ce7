// Command bench is the repository's benchmark: it drives the real serving
// stack — runtime, server, loopback TCP, client connections — in one process
// from wire bytes in to perturbed answers out, checks every delivered answer
// against a brute-force reference, and prints the metrics BENCHMARK.json
// names. See README.md.
//
//	bench --workload serve_heavy --seed 1 --seconds 15 --trace 0
//	bench -repeat 5 -out results/a.json        (every workload, 5 times)
//	bench -compare results/a.json results/b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// errWatchdog is the cancellation cause when -max-wall expires.
var errWatchdog = errors.New("watchdog: -max-wall exceeded")

// hardExitGrace is how long a cancelled run — by the watchdog or a signal —
// may take to tear down before the process exits regardless. Watchdog plus
// grace, 140 s, stays under the 180 s a run is allowed.
const hardExitGrace = 20 * time.Second

// guarded runs f under the watchdog: its context is cancelled, with cause
// errWatchdog, once maxWall has passed. Cancelling only asks; calls that take
// no context (Client.Ingest, Runtime.Close, waiting for Serve to return, the
// mechanism fit) can outlast it. So if f has still not returned grace after
// its context ended, whatever ended it, hardExit is called, which in the
// binary removes the temp directories and exits the process.
func guarded(parent context.Context, maxWall, grace time.Duration, hardExit func(), f func(context.Context) (*runResult, error)) (*runResult, error) {
	ctx, cancel := context.WithTimeoutCause(parent, maxWall, errWatchdog)
	defer cancel()
	returned, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		select {
		case <-returned:
			return
		case <-ctx.Done():
		}
		timer := time.NewTimer(grace)
		defer timer.Stop()
		select {
		case <-returned:
		case <-timer.C:
			hardExit()
		}
	}()
	res, err := f(ctx)
	close(returned)
	<-watched
	return res, err
}

// removeTempDirs removes the temp directories runs create under workdir;
// a run that returns has already removed its own.
func removeTempDirs(workdir string) {
	for _, pattern := range []string{"wal-*", "ladder-*"} {
		dirs, _ := filepath.Glob(filepath.Join(workdir, pattern))
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: ingest_heavy, serve_heavy, answer_fanout, paced_adaptive (all of them with -repeat when empty)")
	seed := fs.Int64("seed", 1, "input seed: same seed, same inputs")
	seconds := fs.Float64("seconds", 15, "how long a run measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics instead of the end-to-end ones")
	workdir := fs.String("workdir", ".bench_build", "directory for temp WAL dirs (removed again) and trace dumps")
	maxWall := fs.Duration("max-wall", 120*time.Second, "watchdog: abort, tear down and exit non-zero if one run takes longer")
	repeat := fs.Int("repeat", 0, "run N times per workload and write every result to -out")
	out := fs.String("out", "", "with -repeat: the JSON file to write")
	compare := fs.Bool("compare", false, "compare the result files given as arguments (or print one file's spread)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := compareFiles(stdout, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// Signals and the watchdog cancel the run's context; every loop and
	// wait below watches it, and the deferred tear-downs still run.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	once := func(name string, seed int64) (*runResult, error) {
		return guarded(sigCtx, *maxWall, hardExitGrace, func() {
			fmt.Fprintf(stderr, "bench: still running %v after cancellation; removing temp directories and exiting\n", hardExitGrace)
			removeTempDirs(*workdir)
			os.Exit(3)
		}, func(ctx context.Context) (*runResult, error) {
			return run(ctx, options{
				workload: name, seed: seed, trace: *trace != 0,
				seconds: time.Duration(*seconds * float64(time.Second)), warmup: warmup,
				workdir: *workdir, log: stderr,
			})
		})
	}

	if *repeat > 0 {
		names := []string{*workload}
		if *workload == "" {
			names = names[:0]
			for _, w := range workloads {
				names = append(names, w.Name)
			}
		}
		var results []*runResult
		ok := true
		// Workloads are interleaved so slow drift of the machine spreads
		// over all of them.
		for i := 0; i < *repeat && sigCtx.Err() == nil; i++ {
			for _, name := range names {
				res, err := once(name, *seed)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				printMetrics(stderr, res)
				results = append(results, res)
				ok = ok && res.Correct
			}
		}
		if *out != "" {
			if err := writeResults(*out, results); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if !ok {
			return 1
		}
		return 0
	}

	res, err := once(*workload, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printMetrics(stderr, res)
	// The result line: exactly the four keys correct, attempted, failed and
	// metrics (the other two are omitted when empty), last on standard output.
	res.Workload, res.Seed = "", 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics lists a result's metrics by name with their units, in table
// order.
func printMetrics(w io.Writer, res *runResult) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

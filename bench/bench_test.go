package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"
	"time"

	"patterndp/internal/cep"
	"patterndp/internal/event"
	"patterndp/internal/runtime"
	"patterndp/internal/wire"
)

// small is a quick workload for the harness tests: sliding windows, ledger
// and WAL on, two named subscriptions.
var small = workload{
	Name: "small", NumTypes: 30, Overlap: 2, NumTarget: 8, Subscribe: 2,
	Batch: 32, Streams: 4, Panes: 24, Budget: true, WAL: true,
}

func TestSameSeedSameInput(t *testing.T) {
	a, err := generate(small, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(small, 7)
	c, _ := generate(small, 8)
	if a.hash != b.hash {
		t.Errorf("same seed gave input %s then %s", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Errorf("seeds 7 and 8 gave the same input %s", a.hash)
	}
}

// TestTablesAgreeWithWindower holds the load generator's arithmetic — which
// windows each batch closes, and which batch closes a window — against the
// runtime's own windower fed the same batches, well past the tabulated two
// cycles.
func TestTablesAgreeWithWindower(t *testing.T) {
	for _, wl := range []workload{small, {Name: "tumbling", NumTypes: 3, Overlap: 1, NumTarget: 2, Subscribe: 1, Batch: 8, Streams: 3, Panes: 16}} {
		in, err := generate(wl, 3)
		if err != nil {
			t.Fatal(err)
		}
		c := in.conns[1]
		var wins []*runtime.Windower
		for range c.streams {
			wins = append(wins, runtime.NewSlidingWindower(event.Timestamp(wl.Overlap)*paneWidth, paneWidth, runtime.DropLate, 0, 0))
		}
		closed := make([]int64, len(c.streams))
		var total int64
		var buf []event.Event
		for g := int64(0); g < 5*c.cycleBatches(); g++ {
			buf = c.fill(buf, g)
			for _, e := range buf {
				s := c.index[e.Source]
				ws, res := wins[s].Push(e)
				if res != runtime.PushAccepted {
					t.Fatalf("%s: batch %d: event %v not accepted", wl.Name, g, e)
				}
				for _, w := range ws {
					if got := c.closingBatch(s, closed[s]); got != g {
						t.Fatalf("%s: stream %d window %d closed by batch %d, table says %d", wl.Name, s, closed[s], g, got)
					}
					if end := c.base[s] + event.Timestamp(closed[s]+1)*paneWidth; w.End != end {
						t.Fatalf("%s: stream %d window %d ends at %d, grid says %d", wl.Name, s, closed[s], w.End, end)
					}
					closed[s]++
					total++
				}
			}
			if got := c.owedAfter(g); got != total {
				t.Fatalf("%s: %d windows closed after batch %d, table says %d", wl.Name, total, g, got)
			}
		}
	}
}

// answerStream fabricates the answers a correct server would deliver to one
// subscription of connection 0 for the first n windows of every stream:
// exact queries answered truthfully, perturbed ones from indicators flipped
// with the mechanism's probabilities.
func answerStream(t *testing.T, in *input, queries []int, n int64) []wire.Answer {
	t.Helper()
	mech, err := buildMechanism(in)
	if err != nil {
		t.Fatal(err)
	}
	flips := mech.(flipProber).FlipProbs()
	rng := rand.New(rand.NewSource(1))
	c := in.conns[0]
	var out []wire.Answer
	for i := int64(0); i < n; i++ {
		for s, name := range c.streams {
			released := c.windowTypes(s, i, in.wl.Overlap)
			for typ, p := range flips {
				if rng.Float64() < p {
					released[typ] = !released[typ]
				}
			}
			end := int64(c.base[s]) + (i+1)*paneWidth
			for _, qi := range queries {
				q := in.queries[qi]
				out = append(out, wire.Answer{
					Sub: 1, Seq: uint64(len(out) + 1), Stream: name, Query: q.Name,
					WindowIndex: uint64(i), Start: end - int64(in.wl.Overlap)*paneWidth, End: end,
					Detected:     cep.EvalIndicators(q.Pattern, released),
					SpentEpsilon: float64(i+1) * epsilon,
				})
			}
		}
	}
	return out
}

func TestCheckerRejectsTamperedAnswers(t *testing.T) {
	in, err := generate(small, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(in)
	queries := ref.delivered()
	exact := -1
	for _, qi := range queries {
		if ref.exact[qi] {
			exact = qi
		}
	}
	if exact < 0 {
		t.Fatalf("workload subscribes to no exact query: %v", in.subscribed)
	}
	// Enough windows that the delivered quality settles: forty cycles.
	c := in.conns[0]
	n := int64(40 * small.Panes)
	good := answerStream(t, in, queries, n)
	verdictOf := func(answers []wire.Answer) (verdict, violations) {
		k := newSubChecker(ref, 0, queries, epsilon)
		for i := range answers {
			k.observe(&answers[i])
		}
		// What every stream owes here is the first n windows.
		for s := range k.next {
			for _, got := range k.next[s] {
				if got < n {
					k.bad.Missing += n - got
				}
			}
		}
		mech, _ := buildMechanism(in)
		expected, _ := ref.expectedQuality(mech)
		v := verdict{correct: true}
		v.add("test", &loopResult{bad: k.bad, conf: k.conf, samples: len(answers)}, expected, io.Discard)
		return v, k.bad
	}

	if v, bad := verdictOf(good); !v.correct || bad.total() != 0 {
		t.Fatalf("a correct answer stream was rejected: %+v", bad)
	}

	dropped := append(append([]wire.Answer(nil), good[:100]...), good[101:]...)
	if v, bad := verdictOf(dropped); v.correct || bad.Missing == 0 || bad.SeqBreaks == 0 {
		t.Errorf("a dropped answer passed: %+v", bad)
	}

	flipped := append([]wire.Answer(nil), good...)
	for i := range flipped {
		if flipped[i].Query == in.queries[exact].Name {
			flipped[i].Detected = !flipped[i].Detected
			break
		}
	}
	if v, bad := verdictOf(flipped); v.correct || bad.Inexact != 1 {
		t.Errorf("a flipped exact bit passed: %+v", bad)
	}

	unperturbed := append([]wire.Answer(nil), good...)
	for i := range unperturbed {
		a := &unperturbed[i]
		a.Detected = ref.truthAt(0, c.index[a.Stream], ref.query[a.Query], int64(a.WindowIndex))
	}
	if v, bad := verdictOf(unperturbed); v.correct || bad.total() != 0 {
		t.Errorf("unperturbed answers passed the two-sided quality check (violations %+v)", bad)
	}

	gap := append([]wire.Answer(nil), good[:50]...)
	gap = append(gap, wire.Answer{Sub: 1, Seq: 60, Gap: true, GapFrom: 51})
	gap = append(gap, good[60:]...)
	if v, bad := verdictOf(gap); v.correct || bad.Gaps != 10 {
		t.Errorf("a gap passed: %+v", bad)
	}

	overspent := append([]wire.Answer(nil), good...)
	overspent[len(overspent)-1].SpentEpsilon += 0.5
	if v, bad := verdictOf(overspent); v.correct || bad.Spend != 1 {
		t.Errorf("a wrong SpentEpsilon passed: %+v", bad)
	}
}

// TestWatchdogExitsAStuckRun: a run wedged in a call that takes no context
// (Client.Ingest, Runtime.Close) does not keep the process. Once its context
// has ended — by the watchdog or by a signal — and the grace has passed, the
// hard exit runs and clears the temp directories; a run that returns in time
// never sees it.
func TestWatchdogExitsAStuckRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		maxWall time.Duration
		signal  bool
		want    error
	}{
		{"watchdog", 10 * time.Millisecond, false, errWatchdog},
		{"signal", time.Minute, true, context.Canceled},
	} {
		dir := t.TempDir()
		for _, name := range []string{"wal-1", "ladder-wal-1", "ladder-rt-1"} {
			if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		parent, signal := context.WithCancel(context.Background())
		if tc.signal {
			signal()
		}
		exited := make(chan struct{})
		_, err := guarded(parent, tc.maxWall, 10*time.Millisecond, func() {
			removeTempDirs(dir)
			close(exited) // the binary exits here; the test releases the wedged call instead
		}, func(ctx context.Context) (*runResult, error) {
			<-exited // deaf to ctx
			return nil, context.Cause(ctx)
		})
		signal()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: cause %v, want %v", tc.name, err, tc.want)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) > 0 {
			t.Errorf("%s: the hard exit left %v", tc.name, left)
		}
	}
	res, err := guarded(context.Background(), time.Minute, 0, func() {
		t.Error("hard exit on a run that returned in time")
	}, func(context.Context) (*runResult, error) { return &runResult{Correct: true}, nil })
	if err != nil || !res.Correct {
		t.Errorf("guarded changed the run's result: %+v, %v", res, err)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, untraced and
// traced, and checks the result carries exactly the tabled metrics, finite
// and with their units, and passes its own output checks.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			// The checks are on names, units and correctness, never on
			// timing, so the workloads may share the CPUs.
			t.Parallel()
			// A few short streams: what the full-size input adds is time to
			// generate it and to enumerate its reference, which every
			// benchmark run does anyway.
			wl.Streams, wl.Panes = 4, 32
			in, err := generate(wl, 1)
			if err != nil {
				t.Fatal(err)
			}
			if in.bench != nil {
				// Likewise a quarter of the history: the traced run fits
				// the AdaptivePPM three times.
				in.bench.History = in.bench.History[:len(in.bench.History)/4]
			}
			ref := newReference(in)
			for _, mode := range []struct {
				trace bool
				defs  []metricDef
			}{{false, endToEnd}, {true, perLayer}} {
				var log bytes.Buffer
				res, err := runOn(context.Background(), options{
					workload: wl.Name, seed: 1, trace: mode.trace, setups: 1,
					seconds: 200 * time.Millisecond, warmup: 50 * time.Millisecond,
					workdir: t.TempDir(), log: &log,
				}, in, ref, 0)
				if err != nil {
					t.Fatalf("trace=%v: %v\n%s", mode.trace, err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d\n%s", mode.trace, res.Correct, res.Attempted, res.Failed, log.String())
				}
				if len(res.Metrics) != len(mode.defs) {
					t.Errorf("trace=%v: %d metrics, table has %d", mode.trace, len(res.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
					} else if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, m.Value, m.Unit, d.Unit)
					} else if !mode.trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
			}
		})
	}
}

// settle waits for goroutines that are already exiting (client read and
// heartbeat loops notice their closed connection asynchronously) and
// reports the count.
func settle(baseline int) int {
	n := goruntime.NumGoroutine()
	for i := 0; i < 200 && n > baseline; i++ {
		time.Sleep(5 * time.Millisecond)
		n = goruntime.NumGoroutine()
	}
	return n
}

// TestRunLeavesNothingBehind is the process-hygiene check: after a run —
// finished, or cut short by the watchdog — no goroutine of the run survives
// and the work directory holds no temp WAL directory.
func TestRunLeavesNothingBehind(t *testing.T) {
	in, err := generate(small, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(in)
	// The baseline is the count once earlier tests' goroutines have gone: no
	// lower reading for 50 ms.
	baseline := goruntime.NumGoroutine()
	for quiet := 0; quiet < 10; quiet++ {
		time.Sleep(5 * time.Millisecond)
		if n := goruntime.NumGoroutine(); n < baseline {
			baseline, quiet = n, 0
		}
	}
	for _, tc := range []struct {
		name    string
		trace   bool
		timeout time.Duration
	}{
		{"finished", false, time.Minute},
		{"finished traced", true, time.Minute},
		{"watchdog", false, 30 * time.Millisecond},
		{"watchdog traced", true, 150 * time.Millisecond},
	} {
		dir := t.TempDir()
		ctx, cancel := context.WithTimeoutCause(context.Background(), tc.timeout, errWatchdog)
		res, err := runOn(ctx, options{
			workload: small.Name, seed: 1, trace: tc.trace, setups: 2,
			seconds: 200 * time.Millisecond, warmup: 20 * time.Millisecond,
			workdir: dir, log: io.Discard,
		}, in, ref, 0)
		cancel()
		if cut := tc.timeout < time.Second; cut && err == nil && res.Correct {
			t.Errorf("%s: a run cut short reported success", tc.name)
		} else if !cut && (err != nil || !res.Correct) {
			t.Errorf("%s: run failed: %v", tc.name, err)
		}
		if n := settle(baseline); n > baseline {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines before the run, %d after\n%s", tc.name, baseline, n, buf[:goruntime.Stack(buf, true)])
		}
		left, _ := filepath.Glob(filepath.Join(dir, "*wal-*"))
		if more, _ := filepath.Glob(filepath.Join(dir, "ladder-*")); len(left)+len(more) > 0 {
			t.Errorf("%s: temp directories left behind: %v %v", tc.name, left, more)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, eps ...float64) string {
		var runs []*runResult
		for _, v := range eps {
			runs = append(runs, &runResult{Workload: "ingest_heavy", Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"events_per_s": {v, "events/s"}}})
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 101, 102, 103, 104)
	for _, tc := range []struct {
		name, want string
		values     []float64
		fails      bool
	}{
		{"same.json", "within", []float64{100, 101, 102, 103, 104}, false},
		{"slow.json", "outside", []float64{50, 51, 52, 53, 54}, true},
		{"noisy.json", "unresolved", []float64{60, 80, 100, 120, 140}, false},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, []string{base, write(tc.name, tc.values...)})
		if (err != nil) != tc.fails || !bytes.Contains(out.Bytes(), []byte(tc.want)) {
			t.Errorf("%s: err=%v, output %q, want verdict %q", tc.name, err, out.String(), tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables saying the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table %q: %q", i, file.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the table %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", file.RunSeconds, file.Paths)
	}
}

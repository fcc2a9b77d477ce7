package patterndp

// Benchmark harness: one benchmark per figure/illustration of the paper's
// evaluation (Fig. 3 and both halves of Fig. 4), plus component benchmarks
// for the substrates the experiments run on. The figure benchmarks print the
// regenerated series once, so `go test -bench=.` both measures and reports.
//
// Scale note: the figure benchmarks run a reduced-but-faithful configuration
// (fewer repetitions/datasets than the paper's 1000) so a full bench run
// stays in minutes; cmd/ppmbench runs the same code at any scale.

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patterndp/internal/baseline"
	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/experiment"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
	"patterndp/internal/stream"
	"patterndp/internal/synth"
	"patterndp/internal/taxi"
)

var (
	printTaxiOnce  sync.Once
	printSynthOnce sync.Once
	printFig3Once  sync.Once
)

// benchFig4Config is the reduced Fig. 4 configuration used by benchmarks.
func benchFig4Config() experiment.Fig4Config {
	cfg := experiment.DefaultFig4Config(1)
	cfg.Reps = 2
	cfg.SynthDatasets = 2
	cfg.TaxiCfg.GridW, cfg.TaxiCfg.GridH = 10, 10
	cfg.TaxiCfg.NumTaxis = 30
	cfg.TaxiCfg.Ticks = 300
	cfg.Adaptive.MaxIters = 10
	scfg := synth.DefaultConfig(0)
	scfg.NumWindows = 400
	cfg.SynthCfg = scfg
	return cfg
}

// BenchmarkFig4Taxi regenerates Fig. 4 (left): MRE vs ε on the Taxi dataset
// for uniform, adaptive, BD, BA and landmark.
func BenchmarkFig4Taxi(b *testing.B) {
	cfg := benchFig4Config()
	for i := 0; i < b.N; i++ {
		rs, err := experiment.Fig4Taxi(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTaxiOnce.Do(func() {
			b.StopTimer()
			experiment.WriteTable(os.Stdout, "\nFig. 4 (left): MRE vs eps — Taxi", rs)
			b.StartTimer()
		})
	}
}

// BenchmarkFig4Synthetic regenerates Fig. 4 (right): MRE vs ε averaged over
// synthetic datasets from Algorithm 2.
func BenchmarkFig4Synthetic(b *testing.B) {
	cfg := benchFig4Config()
	for i := 0; i < b.N; i++ {
		rs, err := experiment.Fig4Synthetic(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printSynthOnce.Do(func() {
			b.StopTimer()
			experiment.WriteTable(os.Stdout, "\nFig. 4 (right): MRE vs eps — synthetic", rs)
			b.StartTimer()
		})
	}
}

// BenchmarkFig3BudgetSplit regenerates the uniform budget distribution
// illustration of Fig. 3.
func BenchmarkFig3BudgetSplit(b *testing.B) {
	printFig3Once.Do(func() {
		_ = experiment.BudgetSplitDemo(os.Stdout, 1.0, 4)
	})
	for i := 0; i < b.N; i++ {
		d, err := dp.UniformDistribution(1.0, 4)
		if err != nil {
			b.Fatal(err)
		}
		_ = dp.ComposedEpsilon(d.FlipProbs())
	}
}

// --- Component benchmarks -------------------------------------------------

func benchIndicatorWindows(n int) []core.IndicatorWindow {
	ds, err := synth.Generate(synth.Config{
		NumTypes: 20, NumWindows: n, NumPatterns: 20, PatternLen: 3,
		NumPrivate: 3, NumTarget: 5, WindowWidth: 100, Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	return ds.IndicatorWindows()
}

// BenchmarkUniformPPMRun measures the uniform PPM's release throughput.
func BenchmarkUniformPPMRun(b *testing.B) {
	pt, _ := core.NewPatternType("p", "e1", "e2", "e3")
	ppm, err := core.NewUniformPPM(1.0, pt)
	if err != nil {
		b.Fatal(err)
	}
	wins := benchIndicatorWindows(200)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ppm.Run(rng, wins)
	}
}

// BenchmarkAdaptiveFit measures a full Algorithm 1 fit on input shaped like
// the serving benchmark's schema: an Algorithm 2 dataset with 12 targets and
// 3 private patterns of 3 elements, fitted on the first half of its windows
// as experiment.SynthBench does. ns/fit and allocs/fit land in
// BENCH_serve.json.
func BenchmarkAdaptiveFit(b *testing.B) {
	for _, history := range []int{100, 1000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			cfg := synth.DefaultConfig(1)
			cfg.NumTarget = 12
			cfg.NumWindows = 2 * history
			ds, err := synth.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			wins, targets, private := ds.IndicatorWindows()[:history], ds.TargetExprs(), ds.PrivateTypes()
			acfg := core.AdaptiveConfig{Epsilon: 1, Alpha: 0.5}
			var ms goruntime.MemStats
			goruntime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			for b.Loop() {
				if _, err := core.NewAdaptivePPM(acfg, wins, targets, private...); err != nil {
					b.Fatal(err)
				}
			}
			goruntime.ReadMemStats(&ms)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/fit")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N), "allocs/fit")
		})
	}
}

// BenchmarkBDRun / BenchmarkBARun / BenchmarkLandmarkRun measure the
// baselines' release throughput on the same windows.
func BenchmarkBDRun(b *testing.B) {
	benchBaseline(b, func(p core.PatternType) (core.Mechanism, error) {
		return baseline.NewBudgetDistribution(baseline.WEventConfig{
			PatternEpsilon: 1, W: 10, Private: []core.PatternType{p},
		})
	})
}

func BenchmarkBARun(b *testing.B) {
	benchBaseline(b, func(p core.PatternType) (core.Mechanism, error) {
		return baseline.NewBudgetAbsorption(baseline.WEventConfig{
			PatternEpsilon: 1, W: 10, Private: []core.PatternType{p},
		})
	})
}

func BenchmarkLandmarkRun(b *testing.B) {
	benchBaseline(b, func(p core.PatternType) (core.Mechanism, error) {
		return baseline.NewLandmark(baseline.LandmarkConfig{
			PatternEpsilon: 1, Private: []core.PatternType{p},
		})
	})
}

func benchBaseline(b *testing.B, build func(core.PatternType) (core.Mechanism, error)) {
	b.Helper()
	pt, _ := core.NewPatternType("p", "e1", "e2", "e3")
	mech, err := build(pt)
	if err != nil {
		b.Fatal(err)
	}
	wins := benchIndicatorWindows(200)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mech.Run(rng, wins)
	}
}

// BenchmarkNFAFeed measures streaming sequence matching throughput.
func BenchmarkNFAFeed(b *testing.B) {
	seq := cep.SeqTypes("a", "b", "c")
	evs := make([]event.Event, 0, 3000)
	rng := rand.New(rand.NewSource(7))
	types := []event.Type{"a", "b", "c", "x", "y"}
	for i := 0; i < 3000; i++ {
		evs = append(evs, event.New(types[rng.Intn(len(types))], event.Timestamp(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := cep.CompileSeq("q", seq, 50, cep.WithMaxRuns(256))
		if err != nil {
			b.Fatal(err)
		}
		_ = m.FeedAll(evs)
	}
}

// BenchmarkEvalWindow measures batch window evaluation of a composite query.
func BenchmarkEvalWindow(b *testing.B) {
	expr := cep.AndOf(cep.SeqTypes("a", "b"), cep.OrOf(cep.E("c"), cep.NegOf(cep.E("d"))))
	w := stream.Window{Start: 0, End: 100}
	rng := rand.New(rand.NewSource(9))
	types := []event.Type{"a", "b", "c", "d", "x"}
	for i := 0; i < 50; i++ {
		w.Events = append(w.Events, event.New(types[rng.Intn(len(types))], event.Timestamp(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = cep.EvalWindow(expr, w)
	}
}

// BenchmarkDetectionProbability measures the adaptive PPM's quality oracle.
func BenchmarkDetectionProbability(b *testing.B) {
	expr := cep.SeqTypes("e1", "e2", "e3")
	truth := map[event.Type]bool{"e1": true, "e2": false, "e3": true}
	flip := map[event.Type]float64{"e1": 0.2, "e2": 0.3, "e3": 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.DetectionProbability(expr, truth, flip, nil)
	}
}

// BenchmarkTaxiGenerate measures the fleet simulator.
func BenchmarkTaxiGenerate(b *testing.B) {
	cfg := taxi.DefaultConfig(1)
	cfg.NumTaxis = 30
	cfg.Ticks = 300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taxi.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthGenerate measures Algorithm 2.
func BenchmarkSynthGenerate(b *testing.B) {
	cfg := synth.DefaultConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeEvents measures the k-way stream merge.
func BenchmarkMergeEvents(b *testing.B) {
	mk := func(src string) []event.Event {
		out := make([]event.Event, 1000)
		for i := range out {
			out[i] = event.New("e", event.Timestamp(i)).WithSource(src)
		}
		return out
	}
	s1, s2, s3 := mk("a"), mk("b"), mk("c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		merged := stream.MergeEvents(done,
			stream.FromSlice(s1), stream.FromSlice(s2), stream.FromSlice(s3))
		for range merged {
		}
		close(done)
	}
}

// BenchmarkRuntimeThroughput measures the sharded streaming runtime's
// end-to-end serving rate — concurrent producers through ingest, windowing,
// per-shard engines, and the answer bus — at 1, 4, and 8 shards. The
// events/s metric is the scaling signal: multi-shard throughput should
// exceed single-shard throughput.
func BenchmarkRuntimeThroughput(b *testing.B) {
	ds, err := synth.Generate(synth.DefaultConfig(3))
	if err != nil {
		b.Fatal(err)
	}
	scfg := ds.Config
	base := ds.Events()
	private := ds.PrivateTypes()
	targets := ds.TargetQueries()
	const streams = 8
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt, err := runtime.New(runtime.Config{
					Shards:      shards,
					WindowWidth: scfg.WindowWidth,
					Mechanism: func(int) (core.Mechanism, error) {
						return core.NewUniformPPM(1, private...)
					},
					Private: private,
					Targets: targets,
					Seed:    int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				sub, err := rt.Subscribe("")
				if err != nil {
					b.Fatal(err)
				}
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					for range sub.C() {
					}
				}()
				var producers sync.WaitGroup
				for s := 0; s < streams; s++ {
					producers.Add(1)
					go func(s int) {
						defer producers.Done()
						key := fmt.Sprintf("stream-%d", s)
						for _, e := range base {
							rt.Ingest(e.WithSource(key))
						}
					}(s)
				}
				producers.Wait()
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
				<-drained
				total += streams * len(base)
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkRegisterChurn measures ingest throughput while the control plane
// churns at 10 registrations per second: a probe query is registered and
// unregistered on a ticker concurrently with the producers, so every epoch
// bump exercises the window-boundary apply path on each shard. Compare the
// events/s metric against BenchmarkRuntimeThroughput to see the cost of
// live reconfiguration.
func BenchmarkRegisterChurn(b *testing.B) {
	ds, err := synth.Generate(synth.DefaultConfig(3))
	if err != nil {
		b.Fatal(err)
	}
	scfg := ds.Config
	base := ds.Events()
	private := ds.PrivateTypes()
	targets := ds.TargetQueries()
	const streams = 8
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := runtime.New(runtime.Config{
			Shards:      4,
			WindowWidth: scfg.WindowWidth,
			MechanismFor: func(_ int, private []core.PatternType) (core.Mechanism, error) {
				return core.NewUniformPPM(1, private...)
			},
			Private: private,
			Targets: targets,
			Seed:    int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		sub, err := rt.Subscribe("")
		if err != nil {
			b.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range sub.C() {
			}
		}()
		// 10 registrations/s of churn for the life of this iteration.
		churnStop := make(chan struct{})
		churnDone := make(chan struct{})
		go func() {
			defer close(churnDone)
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			probe := cep.Query{Name: "probe", Pattern: targets[0].Pattern, Window: scfg.WindowWidth}
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
					b.Error(err)
					return
				}
				registered = !registered
			}
		}()
		var producers sync.WaitGroup
		for s := 0; s < streams; s++ {
			producers.Add(1)
			go func(s int) {
				defer producers.Done()
				key := fmt.Sprintf("stream-%d", s)
				for _, e := range base {
					rt.Ingest(e.WithSource(key))
				}
			}(s)
		}
		producers.Wait()
		close(churnStop)
		<-churnDone
		if err := rt.Close(); err != nil {
			b.Fatal(err)
		}
		<-drained
		total += streams * len(base)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/s")
}

// hotPathQueries builds the target-query set of BenchmarkServeWindowHotPath:
// selective queries require event types that never occur in the stream (and
// are not private elements, so their released indicators stay false and the
// compiled plans prune them), dense queries require types present in every
// window.
func hotPathQueries(selective bool, width event.Timestamp) []cep.Query {
	var qs []cep.Query
	for i := 0; i < 12; i++ {
		var p cep.Expr
		if selective {
			switch i % 3 {
			case 0:
				p = cep.SeqTypes("r0", "r1", "r2")
			case 1:
				p = cep.AndOf(cep.E("r0"), cep.SeqTypes("r1", "r2"))
			default:
				p = cep.SeqTypes(event.Type(fmt.Sprintf("r%d", i%4)), "r9")
			}
		} else {
			switch i % 3 {
			case 0:
				p = cep.SeqTypes("c0", "c1", "c2")
			case 1:
				p = cep.AndOf(cep.E("c3"), cep.OrOf(cep.E("c4"), cep.NegOf(cep.E("c5"))))
			default:
				p = cep.SeqTypes(event.Type(fmt.Sprintf("c%d", i%8)), "c7")
			}
		}
		qs = append(qs, cep.Query{Name: fmt.Sprintf("q%02d", i), Pattern: p, Window: width})
	}
	return qs
}

// benchServeWindow is the shared body of the serving hot-path benchmarks.
// The slide is fixed at 32 logical ticks — the window cadence of the
// original tumbling benchmark, so every configuration serves one window per
// 32 ingested events per stream — and the width grows with the overlap
// factor: overlap=1 is the original tumbling configuration (Slide unset),
// overlap=k serves sliding windows of width 32k.
// budget enables privacy-budget accounting with an effectively unlimited
// grant, so every window is admitted and the rows measure pure ledger
// overhead on the publish path (which must stay 0 allocs/op).
// fsync, when non-empty, enables the durable-state subsystem with that WAL
// sync policy ("interval" | "always" | "off"): every served window's charge
// record is then written ahead of its publish, so the wal= rows measure the
// append-before-publish overhead against the wal-less rows (which must also
// stay 0 allocs/op — the WAL stages into reused buffers).
// obs enables the full observability stack — a metric registry every layer
// instruments into plus 1% lifecycle-trace sampling (records discarded) — so
// the obs=on rows measure the scrape-ready serving path against the
// unobserved rows of the same shape (which must also stay 0 allocs/op: the
// instruments are preallocated atomics).
func benchServeWindow(b *testing.B, mode string, shards, overlap int, budget bool, fsync string, obs bool) {
	private, err := core.NewPatternType("p", "c0", "c1", "c2")
	if err != nil {
		b.Fatal(err)
	}
	commons := make([]event.Type, 8)
	for i := range commons {
		commons[i] = event.Type(fmt.Sprintf("c%d", i))
	}
	const batch = 128
	const slide = 32
	width := event.Timestamp(slide * overlap)
	cfg := runtime.Config{
		Shards:      shards,
		WindowWidth: width,
		Mechanism: func(int) (core.Mechanism, error) {
			return core.NewUniformPPM(1, private)
		},
		Private: []core.PatternType{private},
		Targets: hotPathQueries(mode == "selective", width),
		Seed:    42,
	}
	if overlap > 1 {
		cfg.Slide = slide
	}
	if budget {
		cfg.Budget = dp.Epsilon(1e12)
		cfg.BudgetPolicy = runtime.BudgetDeny
	}
	if fsync != "" {
		fp, err := runtime.ParseFsyncPolicy(fsync)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Durability = &runtime.DurabilityConfig{Dir: b.TempDir(), Fsync: fp}
	}
	if obs {
		cfg.Metrics = metrics.NewRegistry()
		cfg.TraceSample = 0.01
		cfg.TraceLog = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := rt.Subscribe("q00")
	if err != nil {
		b.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.C() {
		}
	}()
	var nextStream int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("stream-%d", atomic.AddInt64(&nextStream, 1))
		var t event.Timestamp
		buf := make([]event.Event, 0, batch)
		flush := func() bool {
			if err := rt.IngestBatch(buf); err != nil {
				b.Error(err)
				return false
			}
			buf = buf[:0]
			return true
		}
		for pb.Next() {
			buf = append(buf, event.New(commons[int(t)%len(commons)], t).WithSource(key))
			t++
			if len(buf) == batch && !flush() {
				return
			}
		}
		flush()
	})
	b.StopTimer()
	if err := rt.Close(); err != nil {
		b.Fatal(err)
	}
	<-drained
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkServeWindowHotPath measures the per-event cost of the full
// serving path — batch ingest, incremental windowing, per-epoch compiled
// plans, the mechanism, query answering, and the answer bus — on selective
// queries (required types absent from the stream) and dense queries
// (required types present in every window), at 1, 4 and 8 shards and at
// overlap factors 1 (tumbling), 4, and 8 (sliding windows pane-assembled at
// a fixed one-window-per-32-events cadence; see benchServeWindow). allocs/op
// is the allocation-discipline signal; events/s the throughput signal.
// Compare the budget=on rows against budget=off for the privacy-ledger
// overhead (accounting must keep the path 0 allocs/op).
// The wal= rows add the durable-state subsystem at each fsync policy on the
// budgeted configuration — wal=off (a WAL that syncs only at checkpoints)
// vs wal=interval (background sync cadence) vs wal=always (sync per
// publish) — against the wal-less rows of the same shape for the
// append-before-publish overhead. The obs=on rows enable the full
// observability stack (metric registry + 1% lifecycle-trace sampling) on the
// budgeted shape at the same corners; compare against the plain budget=on
// rows for the instrumentation overhead, which must stay within 2% ns/event
// and 0 allocs/op. CI records the results in BENCH_serve.json.
func BenchmarkServeWindowHotPath(b *testing.B) {
	for _, mode := range []string{"selective", "dense"} {
		for _, shards := range []int{1, 4, 8} {
			for _, overlap := range []int{1, 4, 8} {
				for _, budget := range []bool{false, true} {
					name := fmt.Sprintf("%s/shards=%d/overlap=%d/budget=%s",
						mode, shards, overlap, map[bool]string{false: "off", true: "on"}[budget])
					b.Run(name, func(b *testing.B) {
						benchServeWindow(b, mode, shards, overlap, budget, "", false)
					})
				}
			}
		}
		// The durability dimension, on the budgeted shape at the matrix
		// corners (the wal-less rows above are the baseline).
		for _, shards := range []int{1, 8} {
			for _, overlap := range []int{1, 8} {
				for _, fsync := range []string{"off", "interval", "always"} {
					name := fmt.Sprintf("%s/shards=%d/overlap=%d/budget=on/wal=%s",
						mode, shards, overlap, fsync)
					b.Run(name, func(b *testing.B) {
						benchServeWindow(b, mode, shards, overlap, true, fsync, false)
					})
				}
			}
		}
		// The observability dimension, on the budgeted shape at the same
		// corners. The obs=off rows repeat the plain budget=on shape as an
		// adjacent baseline — each off/on pair runs back-to-back, so the
		// overhead ratio is read between neighbors rather than across the
		// whole matrix's scheduling drift.
		for _, shards := range []int{1, 8} {
			for _, overlap := range []int{1, 8} {
				for _, obs := range []bool{false, true} {
					name := fmt.Sprintf("%s/shards=%d/overlap=%d/budget=on/obs=%s",
						mode, shards, overlap, map[bool]string{false: "off", true: "on"}[obs])
					b.Run(name, func(b *testing.B) {
						benchServeWindow(b, mode, shards, overlap, true, "", obs)
					})
				}
			}
		}
	}
}

// BenchmarkPrivateEngineProcess measures the end-to-end service phase.
func BenchmarkPrivateEngineProcess(b *testing.B) {
	pt, _ := core.NewPatternType("p", "e1", "e2")
	ppm, _ := core.NewUniformPPM(1, pt)
	pe, err := core.NewPrivateEngine(ppm, []core.PatternType{pt}, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := pe.RegisterTarget(cep.Query{Name: "t", Pattern: cep.SeqTypes("e1", "e3"), Window: 100}); err != nil {
		b.Fatal(err)
	}
	ds, _ := synth.Generate(synth.DefaultConfig(2))
	evs := ds.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pe.ProcessEvents(evs, 100); err != nil {
			b.Fatal(err)
		}
	}
}

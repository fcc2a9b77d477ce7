package runtime

import (
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/stream"
)

// The scenario's control-plane changes: a query registered after the first
// phase and a private pattern registered after the second.
var (
	controlQuery   = cep.Query{Name: "or-cd", Pattern: cep.OrOf(cep.E("c"), cep.NegOf(cep.E("d"))), Window: 10}
	controlPrivate = core.PatternType{Name: "priv2", Elements: []event.Type{"b", "c"}}
)

// controlPhaseWindows is the number of windows each scenario phase ingests.
const controlPhaseWindows = 20

// uniformControlConfig is the one-shard control scenario over a UniformPPM
// factory.
func uniformControlConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig(t, 1)
	cfg.Mechanism = nil
	// ε = 1: flips are frequent, so a replay that drew differently would
	// release different bits.
	cfg.MechanismFor = func(_ int, private []core.PatternType) (core.Mechanism, error) {
		return core.NewUniformPPM(1, private...)
	}
	return cfg
}

// controlRun is what controlScenario served: every answer in delivery order,
// each window's event types (the same under every stream), and the epoch of
// each phase — construction, the RegisterQuery, the RegisterPrivate.
type controlRun struct {
	answers []Answer
	windows [][]event.Type
	epochs  [3]Epoch
}

// controlScenario serves the given streams (identical events under each key)
// through three control-plane epochs — the construction state, a
// RegisterQuery, a RegisterPrivate — one event per Ingest. Each change is
// made only after every answer owed by the windows closed so far has arrived,
// so the window at which a shard picks it up does not depend on scheduling.
func controlScenario(t *testing.T, cfg Config, streams ...string) controlRun {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	// Sized to every answer the scenario can release (3 phases, at most 3
	// queries), so the forwarder never blocks serving.
	answers := make(chan Answer, 3*controlPhaseWindows*3*len(streams))
	go func() {
		defer close(answers)
		for a := range sub.C() {
			answers <- a
		}
	}()

	run := controlRun{epochs: [3]Epoch{rt.Epoch()}}
	rng := rand.New(rand.NewSource(11))
	types := []event.Type{"a", "b", "c", "d"}
	// ingestPhase feeds controlPhaseWindows more windows and waits for the
	// answers of the windows this closes: all but the newest one, which
	// stays open.
	ingestPhase := func(queries int) {
		t.Helper()
		closedBefore := max(len(run.windows)-1, 0)
		for end := len(run.windows) + controlPhaseWindows; len(run.windows) < end; {
			// Every window opens with an "a", then two random types.
			next := len(run.windows)
			win := []event.Type{"a", types[rng.Intn(len(types))], types[rng.Intn(len(types))]}
			run.windows = append(run.windows, win)
			for i, typ := range win {
				for _, key := range streams {
					e := event.New(typ, event.Timestamp(next*10+i)).WithSource(key)
					if err := rt.Ingest(e); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for owed := (len(run.windows) - 1 - closedBefore) * queries * len(streams); owed > 0; owed-- {
			run.answers = append(run.answers, <-answers)
		}
	}

	ingestPhase(2)
	if run.epochs[1], err = rt.RegisterQuery(controlQuery); err != nil {
		t.Fatal(err)
	}
	ingestPhase(3)
	if run.epochs[2], err = rt.RegisterPrivate(controlPrivate); err != nil {
		t.Fatal(err)
	}
	ingestPhase(3)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for a := range answers {
		run.answers = append(run.answers, a)
	}
	return run
}

// replayControl is the control plane's differential oracle: it serves the
// scenario's windows through one direct core.PrivateEngine per shard, built
// as the runtime builds one — cfg.MechanismFor over the live private set, on
// seed shardSeed(cfg.Seed, shard), re-mixed with core.MixSeed(·, privEpoch)
// on a rebuild — and applies each epoch where the runtime applies it: the
// window left open when a change is made is the first served under it. A
// query-only epoch swaps its plans into the live engine (SetTargetPlans). The
// scenario ingests one event per message, so each window is one
// ProcessWindows call, in ingest order. It returns each stream's answers.
func replayControl(t *testing.T, cfg Config, run controlRun, streams ...string) map[string][]Answer {
	t.Helper()
	queries := [][]cep.Query{cfg.Targets, append(slices.Clone(cfg.Targets), controlQuery)}
	privates := [][]core.PatternType{cfg.Private, append(slices.Clone(cfg.Private), controlPrivate)}
	build := func(shard int, private []core.PatternType, seed int64) *core.PrivateEngine {
		m, err := cfg.MechanismFor(shard, slices.Clone(private))
		if err != nil {
			t.Fatal(err)
		}
		pe, err := core.NewPrivateEngine(m, private, seed)
		if err != nil {
			t.Fatal(err)
		}
		return pe
	}
	setTargets := func(pe *core.PrivateEngine, qs []cep.Query) {
		plans := make([]*cep.Plan, len(qs))
		for i, q := range qs {
			plans[i] = cep.MustCompile(q)
		}
		if err := pe.SetTargetPlans(plans); err != nil {
			t.Fatal(err)
		}
	}
	engines := make([]*core.PrivateEngine, cfg.Shards)
	for shard := range engines {
		engines[shard] = build(shard, privates[0], shardSeed(cfg.Seed, shard))
		setTargets(engines[shard], queries[0])
	}
	out := make(map[string][]Answer)
	phase := 0
	for w, types := range run.windows {
		if phase < 2 && w == (phase+1)*controlPhaseWindows-1 {
			phase++
			for shard, pe := range engines {
				if phase == 2 {
					pe = build(shard, privates[1], core.MixSeed(shardSeed(cfg.Seed, shard), int64(run.epochs[2])))
					engines[shard] = pe
				}
				setTargets(pe, queries[1])
			}
		}
		win := stream.Window{Start: event.Timestamp(w * 10), End: event.Timestamp(w*10 + 10)}
		for _, typ := range types {
			win.TypeCounts = win.TypeCounts.Add(typ)
		}
		for _, key := range streams {
			got, err := engines[(HashSharder{}).Shard(key, cfg.Shards)].ProcessWindows([]stream.Window{win})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range got {
				a.WindowIndex = w
				out[key] = append(out[key], Answer{Stream: key, Epoch: run.epochs[phase], Answer: a})
			}
		}
	}
	return out
}

// checkReplay fails the test unless every stream's runtime answers, in
// delivery order, equal the replay's answer for answer — query, window
// index, epoch and released bit — and they span all three epochs.
func checkReplay(t *testing.T, run controlRun, replay map[string][]Answer) {
	t.Helper()
	at := make(map[string]int)
	epochs := map[Epoch]bool{}
	for i, g := range run.answers {
		k := at[g.Stream]
		at[g.Stream]++
		if k >= len(replay[g.Stream]) {
			t.Fatalf("answer %d: stream %s released more than the replay's %d answers", i, g.Stream, len(replay[g.Stream]))
		}
		r := replay[g.Stream][k]
		if g.Query != r.Query || g.WindowIndex != r.WindowIndex || g.Epoch != r.Epoch || g.Detected != r.Detected {
			t.Fatalf("answer %d: runtime %s %s/%d epoch %d = %t, replay %s/%d epoch %d = %t",
				i, g.Stream, g.Query, g.WindowIndex, g.Epoch, g.Detected, r.Query, r.WindowIndex, r.Epoch, r.Detected)
		}
		epochs[g.Epoch] = true
	}
	for key, want := range replay {
		if at[key] != len(want) {
			t.Fatalf("stream %s: runtime released %d answers, replay %d", key, at[key], len(want))
		}
	}
	if len(epochs) != 3 {
		t.Errorf("answers span epochs %v, want 3", epochs)
	}
}

// TestControlPlaneRebindsDensePath is the control-plane half of the serving
// path's differential test: RegisterQuery and RegisterPrivate mid-stream
// rebuild the epoch's type table, flip positions and bound plans, and every
// answer before and after each epoch equals the control-plane replay's on
// the same seed.
func TestControlPlaneRebindsDensePath(t *testing.T) {
	cfg := uniformControlConfig(t)
	run := controlScenario(t, cfg, "s")
	checkReplay(t, run, replayControl(t, cfg, run, "s"))
	flipped := 0
	for _, a := range run.answers {
		if a.Query == "has-a" && !a.Detected {
			flipped++
		}
	}
	// Every window holds an "a": at ε = 1 some has-a answers must have
	// flipped, or the comparison above exercised no perturbation.
	if flipped == 0 {
		t.Error("no has-a answer was perturbed at ε = 1")
	}
}

// TestRegisterPrivateRefitsAdaptive is TestControlPlaneRebindsDensePath for a
// factory that fits: MechanismFor fits an AdaptivePPM over a fixed history on
// every private-set epoch, on two shards serving one stream each. The runtime
// agrees with the control-plane replay answer for answer across the refit
// (the replay fits its own mechanisms through the same factory), and each
// shard's ppm_control_rebuild_seconds holds exactly the one observation of
// the RegisterPrivate epoch (construction builds engines outside it).
func TestRegisterPrivateRefitsAdaptive(t *testing.T) {
	hrng := rand.New(rand.NewSource(23))
	history := make([]core.IndicatorWindow, 120)
	for i := range history {
		present := map[event.Type]bool{"a": true}
		for _, typ := range []event.Type{"b", "c", "d"} {
			present[typ] = hrng.Intn(2) == 0
		}
		history[i] = core.IndicatorWindow{Index: i, Present: present}
	}
	fitTargets := []cep.Expr{cep.E("a"), cep.SeqTypes("a", "b"), cep.OrOf(cep.E("c"), cep.NegOf(cep.E("d")))}
	// One stream per shard, so both shards apply the epoch.
	streams := []string{"s0"}
	for i := 1; len(streams) < 2; i++ {
		key := "s" + strconv.Itoa(i)
		if (HashSharder{}).Shard(key, 2) != (HashSharder{}).Shard(streams[0], 2) {
			streams = append(streams, key)
		}
	}
	var fitted []*core.AdaptivePPM
	var mu sync.Mutex
	cfg := testConfig(t, 2)
	cfg.Mechanism = nil
	cfg.Metrics = metrics.NewRegistry()
	cfg.MechanismFor = func(_ int, private []core.PatternType) (core.Mechanism, error) {
		m, err := core.NewAdaptivePPM(core.AdaptiveConfig{Epsilon: 1, Alpha: 0.5}, history, fitTargets, private...)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		fitted = append(fitted, m)
		mu.Unlock()
		return m, nil
	}
	// Shards deliver concurrently; checkReplay compares per stream.
	run := controlScenario(t, cfg, streams...)
	reg := cfg.Metrics
	checkReplay(t, run, replayControl(t, cfg, run, streams...))
	moved := 0
	for _, m := range fitted {
		moved += m.Iterations()
	}
	if moved == 0 {
		t.Error("no fit committed a step: the factory served uniform allocations only")
	}
	shards := 0
	for _, s := range reg.Gather() {
		if s.Name != "ppm_control_rebuild_seconds" {
			continue
		}
		shards++
		if s.Hist.Count != 1 {
			t.Errorf("ppm_control_rebuild_seconds%v has %d observations, want 1 (the RegisterPrivate epoch)", s.Labels, s.Hist.Count)
		}
	}
	if shards != 2 {
		t.Errorf("ppm_control_rebuild_seconds has %d series, want one per shard", shards)
	}
}

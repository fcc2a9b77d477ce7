package runtime

import (
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
)

// runOnly exposes only the Mechanism interface of the PPM it wraps, so the
// engine built on it serves through the generic Mechanism.Run path.
type runOnly struct{ core.Mechanism }

// uniformControlConfig is the one-shard control scenario over a UniformPPM
// factory, its mechanisms passed through wrap.
func uniformControlConfig(t *testing.T, wrap func(core.Mechanism) core.Mechanism) Config {
	t.Helper()
	cfg := testConfig(t, 1)
	cfg.Mechanism = nil
	// ε = 1: flips are frequent, so a path that drew differently would
	// release different bits.
	cfg.MechanismFor = func(_ int, private []core.PatternType) (core.Mechanism, error) {
		m, err := core.NewUniformPPM(1, private...)
		if err != nil {
			return nil, err
		}
		return wrap(m), nil
	}
	return cfg
}

// controlScenario serves the given streams (identical events under each key)
// through three control-plane epochs — the construction state, a
// RegisterQuery, a RegisterPrivate — and returns every answer in delivery
// order. Each change is made only after every answer owed by the windows
// closed so far has arrived, so the window at which a shard picks it up does
// not depend on scheduling.
func controlScenario(t *testing.T, cfg Config, streams ...string) []Answer {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	const phaseWindows = 20
	// Sized to every answer the scenario can release (3 phases, at most 3
	// queries), so the forwarder never blocks serving.
	answers := make(chan Answer, 3*phaseWindows*3*len(streams))
	go func() {
		defer close(answers)
		for a := range sub.C() {
			answers <- a
		}
	}()

	var got []Answer
	rng := rand.New(rand.NewSource(11))
	types := []event.Type{"a", "b", "c", "d"}
	next := 0
	// ingestPhase feeds phaseWindows more windows and waits for the answers
	// of the windows this closes: all but the newest one, which stays open.
	ingestPhase := func(queries int) {
		t.Helper()
		closedBefore := max(next-1, 0)
		for end := next + phaseWindows; next < end; next++ {
			// Every window opens with an "a", then two random types.
			for i, typ := range []event.Type{"a", types[rng.Intn(len(types))], types[rng.Intn(len(types))]} {
				for _, key := range streams {
					e := event.New(typ, event.Timestamp(next*10+i)).WithSource(key)
					if err := rt.Ingest(e); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for owed := (next - 1 - closedBefore) * queries * len(streams); owed > 0; owed-- {
			got = append(got, <-answers)
		}
	}

	ingestPhase(2)
	if _, err := rt.RegisterQuery(cep.Query{Name: "or-cd", Pattern: cep.OrOf(cep.E("c"), cep.NegOf(cep.E("d"))), Window: 10}); err != nil {
		t.Fatal(err)
	}
	ingestPhase(3)
	pt, err := core.NewPatternType("priv2", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RegisterPrivate(pt); err != nil {
		t.Fatal(err)
	}
	ingestPhase(3)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for a := range answers {
		got = append(got, a)
	}
	return got
}

// TestControlPlaneRebindsDensePath is the control-plane half of the dense
// path's differential test: RegisterQuery and RegisterPrivate mid-stream
// rebuild the epoch's type table, flip positions and bound plans, and every
// answer before and after each epoch equals the generic path's on the same
// seed.
func TestControlPlaneRebindsDensePath(t *testing.T) {
	dense := controlScenario(t, uniformControlConfig(t, func(m core.Mechanism) core.Mechanism { return m }), "s")
	oracle := controlScenario(t, uniformControlConfig(t, func(m core.Mechanism) core.Mechanism { return runOnly{m} }), "s")
	if len(dense) != len(oracle) || len(dense) == 0 {
		t.Fatalf("dense released %d answers, generic %d", len(dense), len(oracle))
	}
	epochs := map[Epoch]bool{}
	flipped := 0
	for i := range dense {
		d, o := dense[i], oracle[i]
		if d.Query != o.Query || d.WindowIndex != o.WindowIndex || d.Epoch != o.Epoch || d.Detected != o.Detected {
			t.Fatalf("answer %d: dense %s/%d epoch %d = %t, generic %s/%d epoch %d = %t",
				i, d.Query, d.WindowIndex, d.Epoch, d.Detected, o.Query, o.WindowIndex, o.Epoch, o.Detected)
		}
		epochs[d.Epoch] = true
		if d.Query == "has-a" && !d.Detected {
			flipped++
		}
	}
	if len(epochs) != 3 {
		t.Errorf("answers span epochs %v, want 3", epochs)
	}
	// Every window holds an "a": at ε = 1 some has-a answers must have
	// flipped, or the comparison above exercised no perturbation.
	if flipped == 0 {
		t.Error("no has-a answer was perturbed at ε = 1")
	}
}

// TestRegisterPrivateRefitsAdaptive is TestControlPlaneRebindsDensePath for a
// factory that fits: MechanismFor fits an AdaptivePPM over a fixed history on
// every private-set epoch, on two shards serving one stream each. The dense
// and generic runtimes agree answer for answer across the refit, and each
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
	scenario := func(wrap func(core.Mechanism) core.Mechanism) ([]Answer, *metrics.Registry) {
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
			return wrap(m), nil
		}
		got := controlScenario(t, cfg, streams...)
		// Shards deliver concurrently: compare per stream, in stream order.
		sort.SliceStable(got, func(i, j int) bool { return got[i].Stream < got[j].Stream })
		return got, cfg.Metrics
	}
	dense, reg := scenario(func(m core.Mechanism) core.Mechanism { return m })
	oracle, _ := scenario(func(m core.Mechanism) core.Mechanism { return runOnly{m} })
	if len(dense) != len(oracle) || len(dense) == 0 {
		t.Fatalf("dense released %d answers, generic %d", len(dense), len(oracle))
	}
	epochs := map[Epoch]bool{}
	for i := range dense {
		d, o := dense[i], oracle[i]
		if d.Stream != o.Stream || d.Query != o.Query || d.WindowIndex != o.WindowIndex || d.Epoch != o.Epoch || d.Detected != o.Detected {
			t.Fatalf("answer %d: dense %s %s/%d epoch %d = %t, generic %s %s/%d epoch %d = %t",
				i, d.Stream, d.Query, d.WindowIndex, d.Epoch, d.Detected, o.Stream, o.Query, o.WindowIndex, o.Epoch, o.Detected)
		}
		epochs[d.Epoch] = true
	}
	if len(epochs) != 3 {
		t.Errorf("answers span epochs %v, want 3", epochs)
	}
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

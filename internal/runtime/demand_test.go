package runtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
)

// settle returns once every shard of rt has served and published every
// message sent to it before the call: it queues a checkpoint export behind
// them on each shard and waits for the replies. Between settle and the next
// ingest no shard is mid-message, so a sink attached or detached there takes
// effect at a known message boundary.
func settle(t *testing.T, rt *Runtime) {
	t.Helper()
	reply := make(chan shardCkptResult, len(rt.shards))
	for _, sh := range rt.shards {
		sh.in <- ingestMsg{ckpt: reply}
	}
	for range rt.shards {
		if r := <-reply; r.err != nil {
			t.Fatal(r.err)
		}
	}
}

// stepLog records what each sink was delivered, per test step.
type stepLog struct {
	mu    sync.Mutex
	step  int
	steps []map[int][]Answer // per step: sink id → answers in delivery order
}

func (l *stepLog) setStep(step int) {
	l.mu.Lock()
	l.step = step
	l.mu.Unlock()
}

func (l *stepLog) at(step int) map[int][]Answer {
	l.mu.Lock()
	defer l.mu.Unlock()
	if step < len(l.steps) {
		return l.steps[step]
	}
	return nil
}

// stepSink is one attached sink of a stepLog.
type stepSink struct {
	log *stepLog
	id  int
}

func (s *stepSink) Deliver(batch []Answer) {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	for len(s.log.steps) <= s.log.step {
		s.log.steps = append(s.log.steps, map[int][]Answer{})
	}
	m := s.log.steps[s.log.step]
	m[s.id] = append(m[s.id], batch...)
}

// sortAnswers orders answers by (stream, query, window): the key that names
// one released answer of a runtime.
func sortAnswers(as []Answer) []Answer {
	as = append([]Answer(nil), as...)
	sort.SliceStable(as, func(i, j int) bool {
		a, b := as[i], as[j]
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		return a.WindowIndex < b.WindowIndex
	})
	return as
}

// demandQueries is the query pool of the demand oracle: the first four are
// registered at construction, the pool is churned while serving.
var demandQueries = []cep.Query{
	{Name: "q-a", Pattern: cep.E("a"), Window: 10},
	{Name: "q-ab", Pattern: cep.SeqTypes("a", "b"), Window: 10},
	{Name: "q-ac", Pattern: cep.AndOf(cep.E("a"), cep.E("c")), Window: 10},
	{Name: "q-c", Pattern: cep.E("c"), Window: 10},
	{Name: "q-bd", Pattern: cep.OrOf(cep.E("b"), cep.E("d")), Window: 10},
}

// TestDemandMatchesSubscribeAll is the differential oracle of demand-driven
// serving. Two runtimes get the same seed, input and registration churn; one
// has a subscribe-all sink for its whole life, the other attaches and detaches
// named sinks on a seeded schedule at message boundaries, so its shards
// evaluate, assemble and publish only the queries some sink listens to. Every
// answer a named sink receives must equal the subscribe-all runtime's answer
// for that (stream, query, window) on every field; each sink must receive
// exactly its query's answers of the messages it was attached for; and
// AnswersEmitted must count exactly the demanded answers. Released bits that
// depended on who listens — a skipped engine call, a plan paired with another
// query's name — fail it.
func TestDemandMatchesSubscribeAll(t *testing.T) {
	for _, mode := range windowModes {
		for _, budget := range []bool{false, true} {
			for _, wal := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/budget=%t/wal=%t", mode.name, budget, wal), func(t *testing.T) {
					checkDemand(t, mode.slide, budget, wal, 11)
				})
			}
		}
	}
}

func checkDemand(t *testing.T, slide event.Timestamp, budget, wal bool, seed int64) {
	const shards, streams, steps = 2, 4, 40
	pt, err := core.NewPatternType("priv", "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	newRuntime := func() *Runtime {
		cfg := Config{
			Shards:      shards,
			WindowWidth: 10,
			Slide:       slide,
			Mechanism: func(int) (core.Mechanism, error) {
				return core.NewUniformPPM(1, pt)
			},
			Private: []core.PatternType{pt},
			Targets: demandQueries[:4],
			Seed:    seed,
		}
		if budget {
			// Charge 1 per admitted window: each stream's grant runs out
			// part-way, and the rest of its windows are placeholders.
			cfg.Budget, cfg.BudgetPolicy = 20, BudgetSuppress
		}
		if wal {
			cfg.Durability = &DurabilityConfig{Dir: t.TempDir()}
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	all, dem := newRuntime(), newRuntime()
	var allLog, demLog stepLog
	if _, err := all.Attach("", &stepSink{log: &allLog}); err != nil {
		t.Fatal(err)
	}

	type liveSink struct {
		query  string
		detach func()
	}
	live := map[int]liveSink{}
	nextID := 1
	registered := map[string]bool{}
	for _, q := range demandQueries[:4] {
		registered[q.Name] = true
	}
	// listening[step] is the query of every sink attached while step was
	// served (the last step is the drain on Close).
	listening := make([]map[int]string, steps+1)
	r := rand.New(rand.NewSource(seed))
	var partial, none bool
	for step := 0; step <= steps; step++ {
		// Churn at the message boundary: registrations on both runtimes
		// alike, sinks on the demand runtime only.
		if step > 0 && r.Intn(4) == 0 {
			q := demandQueries[r.Intn(len(demandQueries))]
			for _, rt := range []*Runtime{all, dem} {
				var err error
				if registered[q.Name] {
					_, err = rt.UnregisterQuery(q)
				} else {
					_, err = rt.RegisterQuery(q)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			registered[q.Name] = !registered[q.Name]
		}
		for n := r.Intn(3); n > 0; n-- {
			if len(live) > 0 && r.Intn(2) == 0 {
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				id := ids[r.Intn(len(ids))]
				live[id].detach()
				delete(live, id)
				continue
			}
			q := demandQueries[r.Intn(len(demandQueries))].Name
			if !registered[q] {
				continue
			}
			detach, err := dem.Attach(q, &stepSink{log: &demLog, id: nextID})
			if err != nil {
				t.Fatal(err)
			}
			live[nextID] = liveSink{q, detach}
			nextID++
		}
		listening[step] = map[int]string{}
		queries := map[string]bool{}
		for id, s := range live {
			listening[step][id] = s.query
			if registered[s.query] {
				queries[s.query] = true
			}
		}
		switch {
		case len(queries) == 0:
			none = true
		case len(queries) < len(registered):
			partial = true
		}
		allLog.setStep(step)
		demLog.setStep(step)
		if step == steps {
			break // the drain on Close publishes the last step
		}
		// One message per shard: each stream's events of this step, in
		// time order, at seeded offsets and types.
		var evs []event.Event
		for s := 0; s < streams; s++ {
			for k := r.Intn(4); k > 0; k-- {
				ty := event.Type([]string{"a", "b", "c", "d"}[r.Intn(4)])
				evs = append(evs, event.New(ty, event.Timestamp(step*10+r.Intn(10))).WithSource(fmt.Sprintf("s%d", s)))
			}
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
		for _, rt := range []*Runtime{all, dem} {
			if len(evs) > 0 {
				if err := rt.IngestBatch(evs); err != nil {
					t.Fatal(err)
				}
			}
			settle(t, rt)
		}
	}
	if !partial || !none {
		t.Fatalf("schedule never served a partial demand (%t) or an empty one (%t)", partial, none)
	}
	for _, rt := range []*Runtime{all, dem} {
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var oracle, demanded, admitted, suppressed int
	for step := 0; step <= steps; step++ {
		want := allLog.at(step)[0]
		oracle += len(want)
		got := demLog.at(step)
		byQuery := map[string][]Answer{}
		for _, a := range want {
			byQuery[a.Query] = append(byQuery[a.Query], a)
		}
		heard := map[string]bool{}
		for id, q := range listening[step] {
			if !heard[q] {
				heard[q] = true
				demanded += len(byQuery[q])
			}
			if !reflect.DeepEqual(sortAnswers(got[id]), sortAnswers(byQuery[q])) {
				t.Fatalf("step %d, sink %d on %s:\n got  %+v\n want %+v", step, id, q, sortAnswers(got[id]), sortAnswers(byQuery[q]))
			}
			next := map[string]int{}
			for _, a := range got[id] {
				if prev, ok := next[a.Stream]; ok && a.WindowIndex <= prev {
					t.Fatalf("step %d, sink %d: stream %s window %d after %d", step, id, a.Stream, a.WindowIndex, prev)
				}
				next[a.Stream] = a.WindowIndex
				if a.Suppressed {
					suppressed++
				} else {
					admitted++
				}
			}
		}
		for id := range got {
			if _, ok := listening[step][id]; !ok {
				t.Fatalf("step %d: detached sink %d was delivered %d answers", step, id, len(got[id]))
			}
		}
	}
	t.Logf("%d of %d answers demanded; sinks took %d admitted and %d suppressed", demanded, oracle, admitted, suppressed)
	if admitted == 0 || (budget && suppressed == 0) {
		t.Fatalf("demanded sinks took %d admitted and %d suppressed answers", admitted, suppressed)
	}
	if got := all.Snapshot().Totals().AnswersEmitted; got != int64(oracle) {
		t.Errorf("subscribe-all runtime: AnswersEmitted = %d, want every answer (%d)", got, oracle)
	}
	if got := dem.Snapshot().Totals().AnswersEmitted; got != int64(demanded) {
		t.Errorf("demand runtime: AnswersEmitted = %d, want the %d demanded of %d", got, demanded, oracle)
	}
	if a, d := all.Snapshot(), dem.Snapshot(); !reflect.DeepEqual(a.Budget, d.Budget) {
		t.Errorf("ledgers differ:\n subscribe-all %+v\n demand        %+v", a.Budget, d.Budget)
	}
}

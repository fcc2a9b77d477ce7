package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

var denseAlphabet = []event.Type{"a", "b", "c", "d", "e", "f", "g", "h"}

// randomDenseExpr draws an expression over the full operator set.
func randomDenseExpr(rng *rand.Rand, depth int) cep.Expr {
	leaf := func() cep.Expr { return cep.E(denseAlphabet[rng.Intn(len(denseAlphabet))]) }
	if depth <= 0 {
		return leaf()
	}
	sub := func() cep.Expr { return randomDenseExpr(rng, depth-1) }
	switch rng.Intn(6) {
	case 0:
		return cep.SeqOf(sub(), sub())
	case 1:
		return cep.AndOf(sub(), sub())
	case 2:
		return cep.OrOf(sub(), sub())
	case 3:
		return cep.NegOf(sub())
	case 4:
		return cep.TimesOf(sub(), 1+rng.Intn(2), 0)
	default:
		return leaf()
	}
}

// randomPrivate draws 1–3 private pattern types of 1–3 elements each. From
// the second pattern on, the first element repeats the first pattern's, so
// overlapping patterns (two flips composing on one type) are always covered
// when there is more than one.
func randomPrivate(t *testing.T, rng *rand.Rand) []PatternType {
	t.Helper()
	var out []PatternType
	for k := 0; k < 1+rng.Intn(3); k++ {
		elems := make([]event.Type, 1+rng.Intn(3))
		for i := range elems {
			elems[i] = denseAlphabet[rng.Intn(len(denseAlphabet))]
		}
		if k > 0 {
			elems[0] = out[0].Elements[0]
		}
		pt, err := NewPatternType(fmt.Sprintf("p%d", k), elems...)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pt)
	}
	return out
}

// randomBatch draws 0–5 windows of 0–11 events; types outside the alphabet
// ("x") appear too. About half the windows are tallied directly and the rest
// are cut by WindowSlice from the drawn events (an empty one stays nil).
func randomBatch(rng *rand.Rand) []stream.Window {
	ws := make([]stream.Window, rng.Intn(6))
	for i := range ws {
		w := stream.Window{Start: event.Timestamp(i * 100), End: event.Timestamp(i*100 + 100)}
		tallied := rng.Intn(2) == 0
		if tallied {
			w.TypeCounts = stream.TypeCounts{}
		}
		var evs []event.Event
		for n := rng.Intn(12); n > 0; n-- {
			typ := event.Type("x")
			if rng.Intn(8) > 0 {
				typ = denseAlphabet[rng.Intn(len(denseAlphabet))]
			}
			if tallied {
				w.TypeCounts = w.TypeCounts.Add(typ)
			} else {
				evs = append(evs, event.New(typ, w.Start+event.Timestamp(len(evs))))
			}
		}
		if len(evs) > 0 {
			w.TypeCounts = stream.WindowSlice(evs, 100)[0].TypeCounts
		}
		ws[i] = w
	}
	return ws
}

// denseMechanisms builds the two PPMs over one private set; the adaptive fit
// scores the given target expressions over a random history.
func denseMechanisms(t *testing.T, rng *rand.Rand, private []PatternType, targets []cep.Expr) map[string]Mechanism {
	t.Helper()
	eps := dp.Epsilon(0.5 + 2*rng.Float64())
	uni, err := NewUniformPPM(eps, private...)
	if err != nil {
		t.Fatal(err)
	}
	var history []stream.Window
	for len(history) < 20 {
		history = append(history, randomBatch(rng)...)
	}
	ada, err := NewAdaptivePPM(AdaptiveConfig{Epsilon: eps, Alpha: 0.5, MaxIters: 5, Seed: 3},
		IndicatorWindows(history, denseAlphabet), targets, private...)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Mechanism{"uniform": uni, "adaptive": ada}
}

// newEngine builds an engine on m, failing the test if m is refused.
func newEngine(t testing.TB, m Mechanism, private []PatternType, seed int64) *PrivateEngine {
	t.Helper()
	pe, err := NewPrivateEngine(m, private, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

// referenceProcess is what the engine's dense rows must reproduce, computed
// over indicator maps: the engine's next call RNG, Mechanism.Run over the
// windows' indicators for the epoch's type table, then each target's plan
// on the released maps. It advances pe's call counter as a service call does.
func referenceProcess(t *testing.T, pe *PrivateEngine, ws []stream.Window) []Answer {
	t.Helper()
	ps := pe.snapshot()
	rng := pe.callRNG()
	released := pe.Mechanism().Run(rng.r, IndicatorWindows(ws, ps.types))
	putRNG(rng)
	if len(released) != len(ws) {
		t.Fatalf("%s released %d windows for %d inputs", pe.Mechanism().Name(), len(released), len(ws))
	}
	var out []Answer
	for i, w := range ws {
		for _, p := range ps.plans {
			q := p.Query()
			out = append(out, Answer{Query: q.Name, WindowIndex: i, Start: w.Start, End: w.End,
				Detected: cep.MustCompile(q).EvalIndicators(released[i])})
		}
	}
	return out
}

// TestDenseMatchesGenericRun is the serving path's differential test: for
// random private sets, queries and window batches, the engine's dense rows
// release exactly the answers the mechanism's own Mechanism.Run releases over
// indicator maps on the same seed (referenceProcess) — same draws, same bits
// — for both PPMs, across successive calls.
func TestDenseMatchesGenericRun(t *testing.T) {
	for trial := int64(0); trial < 60; trial++ {
		rng := rand.New(rand.NewSource(trial))
		private := randomPrivate(t, rng)
		queries := make([]cep.Query, 1+rng.Intn(4))
		exprs := make([]cep.Expr, len(queries))
		for i := range queries {
			exprs[i] = randomDenseExpr(rng, rng.Intn(4))
			queries[i] = cep.Query{Name: fmt.Sprintf("q%d", i), Pattern: exprs[i], Window: 100}
		}
		for name, m := range denseMechanisms(t, rng, private, exprs) {
			dense, oracle := newEngine(t, m, private, trial), newEngine(t, m, private, trial)
			for _, pe := range []*PrivateEngine{dense, oracle} {
				if err := pe.SetTargetPlans(compileAll(queries...)); err != nil {
					t.Fatal(err)
				}
			}
			for call := 0; call < 8; call++ {
				ws := randomBatch(rng)
				got, err := dense.ProcessWindows(ws)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceProcess(t, oracle, ws)
				if len(got) != len(want) || len(got) != len(ws)*len(queries) {
					t.Fatalf("trial %d %s call %d: %d dense answers, %d generic, %d windows x %d queries",
						trial, name, call, len(got), len(want), len(ws), len(queries))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.Query != w.Query || g.WindowIndex != w.WindowIndex || g.Detected != w.Detected {
						t.Fatalf("trial %d %s call %d answer %d: dense %s/%d=%t, generic %s/%d=%t (private %v, query %s)",
							trial, name, call, i, g.Query, g.WindowIndex, g.Detected,
							w.Query, w.WindowIndex, w.Detected, private, queries[i%len(queries)].Pattern)
					}
				}
			}
		}
	}
}

// TestProcessSelectedMatchesProcessWindows: answering a selection of the
// registered queries releases, for each selected query, exactly the answer
// answering all of them would — for random selections including the empty
// one — and leaves the engine's later calls unchanged, so two engines on one
// seed stay in step whatever each selects.
func TestProcessSelectedMatchesProcessWindows(t *testing.T) {
	for trial := int64(0); trial < 30; trial++ {
		rng := rand.New(rand.NewSource(trial))
		private := randomPrivate(t, rng)
		queries := make([]cep.Query, 1+rng.Intn(5))
		exprs := make([]cep.Expr, len(queries))
		for i := range queries {
			exprs[i] = randomDenseExpr(rng, rng.Intn(4))
			queries[i] = cep.Query{Name: fmt.Sprintf("q%d", i), Pattern: exprs[i], Window: 100}
		}
		uni, err := NewUniformPPM(dp.Epsilon(0.5+2*rng.Float64()), private...)
		if err != nil {
			t.Fatal(err)
		}
		every, some := newEngine(t, uni, private, trial), newEngine(t, uni, private, trial)
		for _, pe := range []*PrivateEngine{every, some} {
			if err := pe.SetTargetPlans(compileAll(queries...)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := some.ProcessSelectedInto(nil, randomBatch(rng), []int{len(queries)}); err == nil {
			t.Fatalf("trial %d: selecting query %d of %d did not fail", trial, len(queries), len(queries))
		}
		for call := 0; call < 8; call++ {
			var sel []int
			for j := range queries {
				if rng.Intn(2) == 0 {
					sel = append(sel, j)
				}
			}
			ws := randomBatch(rng)
			all, err := every.ProcessWindows(ws)
			if err != nil {
				t.Fatal(err)
			}
			got, err := some.ProcessSelectedInto(nil, ws, sel)
			if err != nil {
				t.Fatal(err)
			}
			var want []Answer
			for i := range ws {
				for _, j := range sel {
					want = append(want, all[i*len(queries)+j])
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d call %d, selection %v:\n got  %v\n want %v", trial, call, sel, got, want)
			}
		}
	}
}

// processBench is the serving shape the allocation gate and
// BenchmarkProcessWindows share: two overlapping private patterns, twelve
// queries over a 12-type alphabet, tallied windows of about eight distinct
// types.
type processBench struct {
	private []PatternType
	queries []cep.Query
	mechs   map[string]Mechanism
	wins    []stream.Window
}

func newProcessBench(t testing.TB) *processBench {
	t.Helper()
	types := make([]event.Type, 12)
	for i := range types {
		types[i] = event.Type(fmt.Sprintf("t%02d", i))
	}
	pb := &processBench{mechs: make(map[string]Mechanism)}
	for k, elems := range [][]event.Type{{types[0], types[1], types[2]}, {types[2], types[3]}} {
		pt, err := NewPatternType(fmt.Sprintf("p%d", k), elems...)
		if err != nil {
			t.Fatal(err)
		}
		pb.private = append(pb.private, pt)
	}
	var exprs []cep.Expr
	for i := 0; i < 12; i++ {
		a, b, c := types[i%12], types[(i+3)%12], types[(i+7)%12]
		var e cep.Expr
		switch i % 3 {
		case 0:
			e = cep.SeqTypes(a, b, c)
		case 1:
			e = cep.OrOf(cep.SeqTypes(a, b), cep.AndOf(cep.E(c), cep.NegOf(cep.E(a))))
		default:
			e = cep.AndOf(cep.E(a), cep.OrOf(cep.E(b), cep.E(c)))
		}
		exprs = append(exprs, e)
		pb.queries = append(pb.queries, cep.Query{Name: fmt.Sprintf("q%02d", i), Pattern: e, Window: 100})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		w := stream.Window{Start: event.Timestamp(i * 100), End: event.Timestamp(i*100 + 100), TypeCounts: stream.TypeCounts{}}
		for n := 0; n < 12; n++ {
			w.TypeCounts = w.TypeCounts.Add(types[rng.Intn(len(types))])
		}
		pb.wins = append(pb.wins, w)
	}
	uni, err := NewUniformPPM(1, pb.private...)
	if err != nil {
		t.Fatal(err)
	}
	ada, err := NewAdaptivePPM(AdaptiveConfig{Epsilon: 1, Alpha: 0.5, MaxIters: 5},
		IndicatorWindows(pb.wins, types), exprs, pb.private...)
	if err != nil {
		t.Fatal(err)
	}
	pb.mechs["uniform"], pb.mechs["adaptive"] = uni, ada
	return pb
}

// TestProcessWindowsIntoZeroAllocs gates the dense path's allocation
// discipline: with a reused answer buffer, a steady-state service call
// allocates nothing, for either PPM and any batch size.
func TestProcessWindowsIntoZeroAllocs(t *testing.T) {
	pb := newProcessBench(t)
	for name, m := range pb.mechs {
		pe := newEngine(t, m, pb.private, 1)
		if err := pe.SetTargetPlans(compileAll(pb.queries...)); err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 8} {
			var dst []Answer
			at := 0
			allocs := testing.AllocsPerRun(200, func() {
				var err error
				if dst, err = pe.ProcessWindowsInto(dst[:0], pb.wins[at:at+batch]); err != nil {
					t.Fatal(err)
				}
				at = (at + batch) % (len(pb.wins) - batch)
			})
			if allocs != 0 {
				t.Errorf("%s, %d windows per call: %v allocs per call, want 0", name, batch, allocs)
			}
		}
	}
}

// BenchmarkProcessWindows times one service call per PPM at 1 and 8 windows
// per call. ns/window and allocs/window are custom metrics; -benchmem adds
// the per-call view.
func BenchmarkProcessWindows(b *testing.B) {
	pb := newProcessBench(b)
	for _, name := range []string{"uniform", "adaptive"} {
		pe := newEngine(b, pb.mechs[name], pb.private, 1)
		if err := pe.SetTargetPlans(compileAll(pb.queries...)); err != nil {
			b.Fatal(err)
		}
		for _, batch := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/windows=%d", name, batch), func(b *testing.B) {
				// One untimed call sizes the answer buffer and fills the
				// pools, so short smoke runs report the steady state too.
				dst, err := pe.ProcessWindows(pb.wins[:batch])
				if err != nil {
					b.Fatal(err)
				}
				at := 0
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mallocs := ms.Mallocs
				for b.Loop() {
					if dst, err = pe.ProcessWindowsInto(dst[:0], pb.wins[at:at+batch]); err != nil {
						b.Fatal(err)
					}
					at = (at + batch) % (len(pb.wins) - batch)
				}
				runtime.ReadMemStats(&ms)
				windows := float64(b.N * batch)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/windows, "ns/window")
				b.ReportMetric(float64(ms.Mallocs-mallocs)/windows, "allocs/window")
			})
		}
	}
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/durable"
	"patterndp/internal/event"
	"patterndp/internal/runtime"
	"patterndp/internal/stream"
	"patterndp/internal/wire"
)

// The ladder replays one connection's batches through each module's public
// entry points in pipeline order, one span per rung per batch, serially
// (GOMAXPROCS 1 while it runs, so cumulative rungs that cross goroutines
// still add up). Every batch climbs every rung, so a rung's self time is
// its total minus its children's totals over exactly the same work.

// rungs lists the ladder's spans with their logical parent ("" = root).
// The cumulative rungs contain the others: the loopback round trip contains
// the codecs and the in-process serve, which contains the serving modules.
const numRungs = 15

var rungs = [numRungs]struct{ name, parent string }{
	{"loopback.round_trip", ""},
	{"wire.ingest_encode", "loopback.round_trip"},
	{"event.encode", "wire.ingest_encode"},
	{"wire.ingest_decode", "loopback.round_trip"},
	{"event.decode", "wire.ingest_decode"},
	{"runtime.ingest_serve", "loopback.round_trip"},
	{"runtime.ingest_batch_call", "runtime.ingest_serve"},
	{"runtime.windower_push", "runtime.ingest_serve"},
	{"core.process_windows", "runtime.ingest_serve"},
	{"core.perturb", "core.process_windows"},
	{"cep.plan_eval", "core.process_windows"},
	{"account.decide", "runtime.ingest_serve"},
	{"durable.stage_commit", "runtime.ingest_serve"},
	{"wire.answer_encode", "loopback.round_trip"},
	{"wire.answer_decode", "loopback.round_trip"},
}

// rungIndex and rungParent resolve a rung's name to its position and its
// parent's.
var (
	rungIndex  = make(map[string]int, numRungs)
	rungParent [numRungs]int32
)

func init() {
	for i, rg := range rungs {
		rungIndex[rg.name] = i
	}
	for i, rg := range rungs {
		rungParent[i] = -1
		if rg.parent != "" {
			rungParent[i] = int32(rungIndex[rg.parent])
		}
	}
}

// Ladder phases, by batch number: caches fill, then allocations are
// counted (with ReadMemStats around the rung, too heavy to leave in the
// timed batches), then the timed batches.
const (
	ladderWarmBatches  = 16
	ladderAllocBatches = 64
)

// ladderResult is what the ladder measured over its timed batches.
type ladderResult struct {
	batches, events, windows, answers int64
	// total is each rung's summed span duration in ns.
	total map[string]int64
	// Allocation counts over the alloc-phase batches.
	allocEvents, allocBatches, allocWindows                     int64
	eventDecodeAllocs, wireDecodeAllocs, pushAllocs, procAllocs uint64
	eventBytes, answerBytes                                     int64
	walBytes, walWindows                                        int64
	spans                                                       []span
}

// self is a rung's total minus its children's.
func (r *ladderResult) self(name string) int64 {
	t := r.total[name]
	for _, rg := range rungs {
		if rg.parent == name {
			t -= r.total[rg.name]
		}
	}
	return t
}

// pushGroup is the windows one PushInto call closed.
type pushGroup struct {
	stream int
	first  int64 // index of ws[0] in its stream
	ws     []stream.Window
}

// ladder is the serial replay state: every module instantiated on its own,
// configured as the runtime configures it.
type ladder struct {
	in  *input
	ci  *connInput
	t0  time.Time
	res *ladderResult

	// Codec scratch.
	enc, payload, frame []byte
	dec                 []event.Event
	batch               []event.Event
	// Windowing. allocWins are a second set of windowers fed the same
	// events, kept only until the alloc phase ends.
	wins, allocWins []*runtime.Windower
	nextW           []int64
	groups          []pushGroup
	wsBuf           []stream.Window
	// Engine, mechanism, plans.
	eng   *core.PrivateEngine
	mech  core.Mechanism
	plans []*cep.Plan
	types []event.Type
	rng   *rand.Rand
	ans   []core.Answer
	iws   []core.IndicatorWindow
	rel   []map[event.Type]bool
	sink  bool
	// Ledger and WAL, nil when the workload runs without them.
	ledger *account.Ledger
	sled   []*account.StreamLedger
	charge float64
	wal    *durable.Log
	walDir string
	shard  []int // stream -> shard, as the runtime's HashSharder routes it
	keys   []string
	// In-process runtime rung.
	rt     *runtime.Runtime
	rtDir  string
	rtGate *gate
	rtWG   sync.WaitGroup
	nsBuf  []event.Event
	// Loopback rung.
	sys    *system
	lbGate *gate
	lbWG   sync.WaitGroup
	// Answer codec.
	delivered []string
	answers   []wire.Answer
	abuf      []byte
	timer     *time.Timer
}

func newLadder(in *input, workdir string) (ld *ladder, err error) {
	ci := in.conns[0]
	ld = &ladder{
		in: in, ci: ci, res: &ladderResult{total: make(map[string]int64)},
		rng: rand.New(rand.NewSource(in.seed)), rtGate: newGate(), lbGate: newGate(),
		timer: time.NewTimer(time.Hour),
	}
	ld.timer.Stop()
	defer func() {
		if err != nil {
			ld.close()
			ld = nil
		}
	}()
	width := event.Timestamp(in.wl.Overlap) * paneWidth
	for _, name := range ci.streams {
		ld.wins = append(ld.wins, runtime.NewSlidingWindower(width, paneWidth, runtime.DropLate, 0, 0))
		ld.allocWins = append(ld.allocWins, runtime.NewSlidingWindower(width, paneWidth, runtime.DropLate, 0, 0))
		key := ci.tenant + "/" + name
		ld.keys = append(ld.keys, key)
		ld.shard = append(ld.shard, runtime.HashSharder{}.Shard(key, shards))
	}
	ld.delivered = in.subscribed
	if ld.delivered == nil {
		for _, q := range in.queries {
			ld.delivered = append(ld.delivered, q.Name)
		}
	}
	ld.nextW = make([]int64, len(ci.streams))
	if ld.mech, err = buildMechanism(in); err != nil {
		return ld, err
	}
	if ld.eng, err = core.NewPrivateEngine(ld.mech, in.private, in.seed); err != nil {
		return ld, err
	}
	seen := make(map[event.Type]bool)
	for _, p := range in.private {
		for _, t := range p.Elements {
			seen[t] = true
		}
	}
	for _, q := range in.queries {
		p, err := cep.Compile(q)
		if err != nil {
			return ld, err
		}
		ld.plans = append(ld.plans, p)
		for _, t := range q.Pattern.Types() {
			seen[t] = true
		}
	}
	ld.types = core.SortedTypes(seen)
	if err = ld.eng.SetTargetPlans(ld.plans); err != nil {
		return ld, err
	}
	if in.wl.Budget {
		ld.charge = float64(ld.mech.TotalEpsilon())
		ld.ledger = account.NewLedger(budgetGrant, account.Deny, in.wl.Overlap, shards)
		names := make([]string, len(in.queries))
		for i, q := range in.queries {
			names[i] = q.Name
		}
		for i := 0; i < shards; i++ {
			ld.ledger.Shard(i).SetCharge(ld.charge)
			ld.ledger.Shard(i).SetQueries(names)
		}
		for s, key := range ld.keys {
			ld.sled = append(ld.sled, ld.ledger.Shard(ld.shard[s]).OpenStream(key, 0))
		}
	}
	if in.wl.WAL {
		if ld.walDir, err = os.MkdirTemp(workdir, "ladder-wal-"); err != nil {
			return ld, err
		}
		if ld.wal, err = durable.Open(ld.walDir, durable.Options{Shards: shards, Fsync: durable.FsyncInterval}); err != nil {
			return ld, err
		}
		if ld.rtDir, err = os.MkdirTemp(workdir, "ladder-rt-"); err != nil {
			return ld, err
		}
	}
	if ld.rt, err = runtime.New(runtimeConfig(in, ld.mech, ld.rtDir, nil)); err != nil {
		return ld, err
	}
	names := in.subscribed
	if names == nil {
		names = []string{""}
	}
	for _, name := range names {
		sub, err := ld.rt.Subscribe(name)
		if err != nil {
			return ld, err
		}
		ld.rtWG.Add(1)
		go func() {
			defer ld.rtWG.Done()
			for range sub.C() {
				ld.rtGate.arrive()
			}
		}()
	}
	if ld.sys, err = setUp(in, workdir, 1, nil); err != nil {
		return ld, err
	}
	for _, sub := range ld.sys.subs[0] {
		ld.lbWG.Add(1)
		go func() {
			defer ld.lbWG.Done()
			for range sub.C {
				ld.lbGate.arrive()
			}
		}()
	}
	return ld, nil
}

// close stops everything the ladder started and waits for it.
func (ld *ladder) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if ld.sys != nil {
		keep(ld.sys.tearDown())
		ld.lbWG.Wait()
	}
	if ld.rt != nil {
		keep(ld.rt.Close())
		ld.rtWG.Wait()
	}
	if ld.wal != nil {
		keep(ld.wal.Close())
	}
	for _, dir := range []string{ld.walDir, ld.rtDir} {
		if dir != "" {
			keep(os.RemoveAll(dir))
		}
	}
	return first
}

// run climbs the ladder batch by batch until the time budget is spent.
func (ld *ladder) run(ctx context.Context, budget time.Duration) error {
	prev := goruntime.GOMAXPROCS(1)
	defer goruntime.GOMAXPROCS(prev)
	ld.t0 = time.Now()
	var deadline time.Time
	for g := int64(0); ctx.Err() == nil; g++ {
		if g == ladderWarmBatches+ladderAllocBatches {
			deadline = time.Now().Add(budget)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		if err := ld.step(ctx, g); err != nil {
			return err
		}
	}
	if ld.wal != nil {
		// Bytes on disk per staged window, warm-up batches included on
		// both sides of the ratio.
		files, err := filepath.Glob(filepath.Join(ld.walDir, "*"))
		if err != nil {
			return err
		}
		for _, f := range files {
			if st, err := os.Stat(f); err == nil {
				ld.res.walBytes += st.Size()
			}
		}
	}
	return context.Cause(ctx)
}

func mallocs() uint64 {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.Mallocs
}

// step sends batch g up every rung.
func (ld *ladder) step(ctx context.Context, g int64) error {
	res := ld.res
	timed := g >= ladderWarmBatches+ladderAllocBatches
	counting := !timed && g >= ladderWarmBatches
	var spans [numRungs]span
	// rung times fn as the named rung of this batch.
	rung := func(name string, fn func()) {
		start := time.Since(ld.t0)
		fn()
		end := time.Since(ld.t0)
		ld.note(&spans, name, int64(start), int64(end), g)
	}
	// count is rung for the alloc phase: it also returns fn's mallocs.
	count := func(name string, fn func()) uint64 {
		if !counting {
			rung(name, fn)
			return 0
		}
		before := mallocs()
		fn()
		return mallocs() - before
	}

	ld.batch = ld.ci.fill(ld.batch, g)
	batch := ld.batch
	var err error

	// Event codec alone, then inside the ingest frame.
	rung("event.encode", func() { ld.enc = event.AppendBinaryBatch(ld.enc[:0], batch) })
	res.eventDecodeAllocs += count("event.decode", func() { ld.dec, err = event.DecodeBinaryBatch(ld.dec[:0], ld.enc) })
	if err != nil {
		return err
	}
	rung("wire.ingest_encode", func() {
		ld.payload = wire.AppendIngest(ld.payload[:0], wire.Ingest{Req: uint64(g + 1), Events: batch})
		ld.frame = wire.AppendFrame(ld.frame[:0], wire.TIngest, ld.payload)
	})
	res.wireDecodeAllocs += count("wire.ingest_decode", func() {
		var f wire.Frame
		if f, _, err = wire.DecodeFrame(ld.frame); err == nil {
			_, err = wire.DecodeIngest(f.Payload, ld.dec[:0])
		}
	})
	if err != nil {
		return err
	}

	// Windowing: one PushInto per event. Closed windows are copied out for
	// the rungs below; the copying is ladder work, so its time is taken
	// back out of the span.
	ld.groups, ld.wsBuf = ld.groups[:0], ld.wsBuf[:0]
	var scratch []stream.Window
	var copying time.Duration
	push := func() {
		for _, e := range batch {
			s := ld.ci.index[e.Source]
			ws, _ := ld.wins[s].PushInto(e, scratch[:0])
			scratch = ws
			if len(ws) == 0 {
				continue
			}
			c0 := time.Now()
			from := len(ld.wsBuf)
			for _, w := range ws {
				if ld.in.wl.Overlap > 1 {
					// Pane-assembled tallies are the windower's
					// scratch, valid until the next push.
					w.TypeCounts = append(stream.TypeCounts(nil), w.TypeCounts...)
				}
				ld.wsBuf = append(ld.wsBuf, w)
			}
			ld.groups = append(ld.groups, pushGroup{stream: s, first: ld.nextW[s], ws: ld.wsBuf[from:len(ld.wsBuf):len(ld.wsBuf)]})
			ld.nextW[s] += int64(len(ws))
			copying += time.Since(c0)
		}
	}
	if !timed {
		// The copies above allocate too, so the alloc phase counts a bare
		// replay into a second set of windowers, warmed on the same events.
		res.pushAllocs += ld.replayPush(batch, counting)
		push()
	} else {
		start := time.Since(ld.t0)
		push()
		end := time.Since(ld.t0) - copying
		ld.note(&spans, "runtime.windower_push", int64(start), int64(end), g)
	}
	windows := int64(len(ld.wsBuf))

	// Engine: one call per push, as the shard makes them.
	res.procAllocs += count("core.process_windows", func() {
		for _, grp := range ld.groups {
			if ld.ans, err = ld.eng.ProcessWindowsInto(ld.ans[:0], grp.ws); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	// Its two children again, alone: the mechanism over prepared
	// indicators, then every plan over the released bits.
	ld.prepareIndicators()
	rung("core.perturb", func() {
		reuser, reuse := ld.mech.(core.ReleaseReuser)
		at := 0
		for _, grp := range ld.groups {
			n := len(grp.ws)
			if reuse {
				reuser.RunInto(ld.rng, ld.iws[at:at+n], ld.rel[at:at+n])
			} else {
				copy(ld.rel[at:at+n], ld.mech.Run(ld.rng, ld.iws[at:at+n]))
			}
			at += n
		}
	})
	rung("cep.plan_eval", func() {
		for _, rel := range ld.rel[:windows] {
			for _, p := range ld.plans {
				ld.sink = p.EvalIndicators(rel) != ld.sink
			}
		}
	})

	if ld.ledger != nil {
		rung("account.decide", func() {
			for _, grp := range ld.groups {
				sh := ld.ledger.Shard(ld.shard[grp.stream])
				for i := range grp.ws {
					out := ld.ledger.Decide(sh, ld.sled[grp.stream], grp.first+int64(i), ld.charge, 0)
					if out.Decision == account.Admitted {
						sh.ChargeQueries(ld.charge)
					}
				}
			}
		})
	}
	if ld.wal != nil {
		rung("durable.stage_commit", func() {
			for _, grp := range ld.groups {
				app := ld.wal.Shard(ld.shard[grp.stream])
				for i, w := range grp.ws {
					app.StageWindow(ld.keys[grp.stream], grp.first+int64(i), int64(w.Start), durable.DecisionAdmitted, ld.charge, 0)
				}
			}
			// One group commit per shard per ingest message.
			for i := 0; i < shards && err == nil; i++ {
				err = ld.wal.Shard(i).Commit()
			}
		})
		if err != nil {
			return err
		}
		res.walWindows += windows
	}

	// In-process cumulative: IngestBatch until the last owed answer is on a
	// Subscription channel. Stream keys are namespaced as the server would.
	perWindow := int64(ld.in.wl.subsPerWindow())
	owed := ld.ci.owedAfter(g) * perWindow
	ld.nsBuf = append(ld.nsBuf[:0], batch...)
	for i := range ld.nsBuf {
		ld.nsBuf[i].Source = ld.keys[ld.ci.index[ld.nsBuf[i].Source]]
	}
	ok := true
	rung("runtime.ingest_serve", func() {
		rung("runtime.ingest_batch_call", func() { err = ld.rt.IngestBatch(ld.nsBuf) })
		ok = err == nil && ld.rtGate.await(ctx, owed, ld.timer)
	})
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("ladder batch %d: in-process answers not delivered", g)
	}

	// Answer codec over the answers this batch owes.
	ld.buildAnswers()
	var offs []int
	rung("wire.answer_encode", func() {
		ld.abuf = ld.abuf[:0]
		for i := range ld.answers {
			offs = append(offs, len(ld.abuf))
			ld.payload = wire.AppendAnswer(ld.payload[:0], ld.answers[i])
			ld.abuf = wire.AppendFrame(ld.abuf, wire.TAnswer, ld.payload)
		}
	})
	rung("wire.answer_decode", func() {
		for _, off := range offs {
			var f wire.Frame
			if f, _, err = wire.DecodeFrame(ld.abuf[off:]); err != nil {
				return
			}
			if _, err = wire.DecodeAnswer(f.Payload); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}

	// The whole thing over loopback TCP, one batch in flight.
	rung("loopback.round_trip", func() {
		var n int
		n, err = ld.sys.clients[0].Ingest(batch)
		ok = err == nil && n == len(batch) && ld.lbGate.await(ctx, owed, ld.timer)
	})
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("ladder batch %d: loopback answers not delivered", g)
	}

	switch {
	case counting:
		res.allocBatches++
		res.allocEvents += int64(len(batch))
		res.allocWindows += windows
	case timed:
		res.batches++
		res.events += int64(len(batch))
		res.windows += windows
		res.answers += int64(len(ld.answers))
		res.eventBytes += int64(len(ld.enc))
		res.answerBytes += int64(len(ld.abuf))
		for _, s := range spans {
			res.total[s.Name] += s.End - s.Start
		}
		if len(res.spans)+len(spans) <= maxSpans/4 {
			res.spans = appendSpans(res.spans, spans[:])
		}
	}
	return nil
}

// note files one rung's span for the batch, linked to its parent rung.
func (ld *ladder) note(spans *[numRungs]span, name string, start, end, g int64) {
	i := rungIndex[name]
	spans[i] = span{Name: name, Start: start, End: end, Parent: rungParent[i], Batch: g}
}

// replayPush pushes the batch into the alloc-phase windowers and, when
// counting, returns the mallocs of those PushInto calls alone.
func (ld *ladder) replayPush(batch []event.Event, counting bool) uint64 {
	var scratch []stream.Window
	var before uint64
	if counting {
		before = mallocs()
	}
	for _, e := range batch {
		scratch, _ = ld.allocWins[ld.ci.index[e.Source]].PushInto(e, scratch[:0])
	}
	if !counting {
		return 0
	}
	return mallocs() - before
}

// prepareIndicators builds, for the windows of the current batch, the
// indicator windows the engine would hand the mechanism, reusing maps.
func (ld *ladder) prepareIndicators() {
	n := len(ld.wsBuf)
	for len(ld.iws) < n {
		ld.iws = append(ld.iws, core.IndicatorWindow{
			Present: make(map[event.Type]bool, len(ld.types)),
			Counts:  make(map[event.Type]int, len(ld.types)),
		})
		ld.rel = append(ld.rel, make(map[event.Type]bool, len(ld.types)))
	}
	for i, w := range ld.wsBuf {
		iw := &ld.iws[i]
		iw.Index = i
		for _, t := range ld.types {
			c := w.Count(t)
			iw.Counts[t] = c
			iw.Present[t] = c > 0
		}
	}
}

// buildAnswers lists the wire answers the current batch's windows owe.
func (ld *ladder) buildAnswers() {
	ld.answers = ld.answers[:0]
	for _, grp := range ld.groups {
		for i, w := range grp.ws {
			for _, q := range ld.delivered {
				ld.answers = append(ld.answers, wire.Answer{
					Sub: 1, Seq: uint64(len(ld.answers) + 1),
					Stream: ld.ci.streams[grp.stream], Query: q,
					WindowIndex: uint64(grp.first + int64(i)),
					Start:       int64(w.Start), End: int64(w.End),
					Detected:     i%2 == 0,
					SpentEpsilon: ld.charge * float64(grp.first+int64(i)+1), RemainingEpsilon: budgetGrant,
				})
			}
		}
	}
}

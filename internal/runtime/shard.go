package runtime

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/core"
	"patterndp/internal/durable"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/stream"
)

// shardStats are one shard's serving counters. They are bumped only by the
// shard's serving goroutine and loaded concurrently by Snapshot.
type shardStats struct {
	eventsIn       metrics.Counter
	windowsClosed  metrics.Counter
	panesClosed    metrics.Counter
	answersEmitted metrics.Counter
	droppedLate    metrics.Counter
	droppedFuture  metrics.Counter
	droppedFailed  metrics.Counter
	streams        metrics.Counter
	streamsEvicted metrics.Counter
}

// ingestMsg is one shard channel message: a single event (batch and ckpt
// nil), a batch of events in stream order, or a checkpoint request. Batches
// amortize the per-message channel synchronization over many events; the
// single-event form keeps Ingest allocation-free. Checkpoint requests flow
// through the same channel so the shard exports between batches — a point
// where its ledger, windowers, and WAL position are mutually consistent.
type ingestMsg struct {
	ev    event.Event
	batch *[]event.Event
	ckpt  chan<- shardCkptResult
	// t0 is the trace origin (unix nanoseconds of ingest admission) when
	// the batch was selected for lifecycle tracing; 0 otherwise.
	t0 int64
	// rc is the receipt of the IngestBatchReceipt call the batch is part
	// of, released once the message is done with; nil for any other.
	rc *Receipt
}

// size returns the number of events the message carries.
func (m ingestMsg) size() int64 {
	if m.ckpt != nil {
		return 0
	}
	if m.batch != nil {
		return int64(len(*m.batch))
	}
	return 1
}

// takeBatch returns an empty buffer for a batch routed to the shard, with
// capacity for n events when it has to be made.
func (s *shard) takeBatch(n int) *[]event.Event {
	select {
	case b := <-s.batches:
		return b
	default:
	}
	b := make([]event.Event, 0, n)
	return &b
}

// copyBatch copies a producer's events into a buffer the shard recycles after
// serving them.
func (s *shard) copyBatch(evs []event.Event) *[]event.Event {
	b := s.takeBatch(len(evs))
	*b = append(*b, evs...)
	return b
}

// recycleBatch empties a batch buffer routed to the shard — served, dropped
// or never sent — and keeps it for the next batch. Events are value types,
// so no contents escape.
func (s *shard) recycleBatch(b *[]event.Event) {
	*b = (*b)[:0]
	select {
	case s.batches <- b:
	default:
	}
}

// discard ends an ingest message that will not be served — evicted, refused
// or drained by a failed shard: its buffer is recycled and its receipt
// released.
func (s *shard) discard(m ingestMsg) {
	if m.batch != nil {
		s.recycleBatch(m.batch)
	}
	if m.rc != nil {
		m.rc.release()
	}
}

// streamState is the per-stream serving state owned by one shard: the
// stream's incremental windower, its next window index, the shard clock
// reading of its last event (for idle eviction), and the pane-counter
// watermark already folded into the shard stats.
type streamState struct {
	win       *Windower
	next      int
	lastSeen  int64
	panesSeen int64
	// bud is the stream's privacy-budget ledger, cached here so the
	// publish path charges it without a registry lookup; nil when
	// accounting is disabled.
	bud *account.StreamLedger
}

// shard is one serving unit: a bounded ingest channel, its own PrivateEngine
// around its own mechanism instance (independently seeded), and the window
// state of every stream routed to it. All fields past the channel are owned
// by the shard's run goroutine (epoch is additionally loaded by Snapshot).
type shard struct {
	id      int
	rt      *Runtime
	engine  *core.PrivateEngine
	cur     *controlState // control state currently applied to engine
	epoch   atomic.Uint64 // cur.epoch, mirrored for Snapshot
	in      chan ingestMsg
	streams map[string]*streamState
	// batches keeps the emptied buffers of the batches the shard has served
	// for producers routing to it to refill: the buffer comes back on a
	// different goroutine, and usually a different P, than the one that
	// takes it, which a sync.Pool serves mostly by allocating. Its capacity,
	// one more than the ingest channel's, holds every batch that can be
	// queued or in service, so a drained backlog is kept, not re-made.
	batches chan *[]event.Event
	clock   int64 // events served; drives idle-stream eviction
	stats   shardStats
	failed  atomic.Bool // set on the first serving error; checked by Ingest
	err     error       // first serving error; read after rt.wg.Wait()

	// led is the shard's single-writer budget sub-ledger and charge the
	// current per-window release charge (the mechanism's pattern-level ε);
	// led is nil when accounting is disabled.
	led    *account.ShardLedger
	charge float64

	// wal is the shard's single-writer WAL appender; nil when durability is
	// disabled. Window and eviction records are staged while deciding and
	// group-committed by commit, one write per ingest message, strictly
	// before the answers they cover leave the outbox — the ordering the
	// one-sided recovery invariant rests on.
	wal *durable.Appender
	// outbox holds the answers of the ingest message being served: emit
	// assembles them in place and commit publishes them at message end, so a
	// message that fails — while serving or at its WAL commit — publishes
	// nothing. outSlot is parallel to it: each answer's slot in dem.table.
	outbox  []Answer
	outSlot []int32
	// pubGather is the bus's per-query gather scratch, owned here so each
	// shard publishes without sharing or allocating one.
	pubGather gather
	// dem is the demand the current message is served for; demanded mirrors
	// its size for ShardStats.QueriesDemanded.
	dem      demand
	demanded atomic.Int64

	// Serving scratch of one emit, reused across pushes: the closed-window
	// batch, each window's admission outcome, the admitted sub-batch handed
	// to the engine, and the engine's answers. Only the slice headers are
	// recycled — only the windows' intervals reach the outbox.
	wsScratch  []stream.Window
	outScratch []account.Outcome
	admScratch []stream.Window
	ansScratch []core.Answer
	// trace0 is the trace origin of the message currently being served (0
	// when untraced): answers emitted while it is set carry it as
	// Answer.TraceNanos, extending the lifecycle trace to delivery.
	trace0 int64
	// lastKey/lastStream cache the most recent stream lookup: batches are
	// usually runs of one stream, so consecutive events skip the map.
	lastKey    string
	lastStream *streamState
}

// demand is a shard's resolution of one bus sink table against its applied
// control state: the target queries some sink listens to — every one while a
// subscribe-all sink is attached, otherwise those with a named sink — as
// ascending indices into the state's targets (and so into the engine's plan
// set), and each one's slot in the table (-1 when only subscribe-all sinks
// listen). A window costs what its subscribers receive: only these queries
// are evaluated, assembled and published. The release itself — decision,
// charge, WAL record, engine call and its draws — does not depend on the
// demand.
type demand struct {
	table *sinkTable
	idx   []int
	slot  []int32
}

// resolve recomputes the demand for table t and control state ctl.
func (d *demand) resolve(t *sinkTable, ctl *controlState) {
	d.table = t
	d.idx, d.slot = d.idx[:0], d.slot[:0]
	all := len(t.all) > 0
	for k, q := range ctl.targets {
		slot := t.slotOf(q.Name)
		if slot < 0 && !all {
			continue
		}
		d.idx = append(d.idx, k)
		d.slot = append(d.slot, slot)
	}
}

// loadDemand reads the bus's sink table for the message about to be served —
// once per message, so evaluation and publish see the same subscribers — and
// re-resolves the demand when the table changed since the last message.
func (s *shard) loadDemand() {
	if t := s.rt.bus.table.Load(); t != s.dem.table {
		s.resolveDemand(t)
	}
}

// resolveDemand resolves the demand for table t under the applied control
// state and publishes its size.
func (s *shard) resolveDemand(t *sinkTable) {
	s.dem.resolve(t, s.cur)
	s.demanded.Store(int64(len(s.dem.idx)))
}

// syncControl applies any control-plane epochs published since the shard
// last served a window. It runs only at window boundaries — the caller is
// about to serve a batch of fully closed windows — so no window is ever
// answered under a half-applied registration state. A private-set change
// rebuilds the mechanism (via the configured factory, so budget splits stay
// coherent over the new set) and the engine around it; a query-only change
// swaps the epoch's precompiled plan set into the live engine, keeping its
// mechanism and call counter. It reports false on a rebuild error, which it
// records for Close to surface, like emit.
func (s *shard) syncControl() bool {
	st := s.rt.ctl.Load()
	if st == s.cur {
		return true
	}
	if st.privEpoch != s.cur.privEpoch {
		if err := s.rebuild(st); err != nil {
			return s.fail(err)
		}
	} else if err := s.engine.SetTargetPlans(st.plans); err != nil {
		return s.fail(err)
	}
	if s.led != nil {
		if st.budgetEpoch != s.cur.budgetEpoch {
			// A budget rotation: archive the live per-query attribution;
			// streams rotate their spend lazily at their next release.
			s.led.Rotate()
		}
		s.led.SetQueries(st.targetNames())
	}
	s.cur = st
	s.epoch.Store(uint64(st.epoch))
	// Same table, new targets: the message's subscribers are unchanged, but
	// the queries they name may have moved, appeared or gone.
	s.resolveDemand(s.dem.table)
	return true
}

// rebuild replaces the shard's mechanism and engine for a new private set.
// The factory runs here, on the shard goroutine between two windows, so its
// duration — ppm_control_rebuild_seconds — is time the shard serves nothing:
// a factory that fits a mechanism holds every stream of the shard that long.
func (s *shard) rebuild(st *controlState) error {
	if o := s.rt.obs; o != nil {
		defer o.rebuild[s.id].ObserveSince(time.Now())
	}
	eng, err := s.rt.buildEngine(s.id, st)
	if err != nil {
		return err
	}
	s.engine = eng
	if s.led != nil {
		// The rebuilt mechanism's pattern-level ε is the new
		// per-window release charge.
		s.charge = float64(eng.Mechanism().TotalEpsilon())
		s.led.SetCharge(s.charge)
	}
	return nil
}

// fail records the shard's first serving error and flips the failed flag so
// Ingest starts rejecting; it always returns false for use in serving paths.
func (s *shard) fail(err error) bool {
	if s.err == nil {
		s.err = err
	}
	s.failed.Store(true)
	return false
}

// run is the shard's serving loop: window every incoming event's stream,
// serve closed windows through the engine, and publish each message's
// released answers when the message ends.
// When the ingest channel closes it drains, flushing every stream's trailing
// windows in deterministic key order.
func (s *shard) run() {
	defer s.rt.wg.Done()
	for msg := range s.in {
		ok := true
		if msg.ckpt != nil {
			msg.ckpt <- shardCkptResult{sc: s.exportCheckpoint()}
			continue
		}
		s.loadDemand()
		// A traced message: record the channel dwell (hop) boundary and
		// arm trace0 so every answer it produces carries the origin.
		var tHop time.Time
		var traceN int64
		if msg.t0 != 0 && s.rt.obs != nil {
			tHop = time.Now()
			traceN = msg.size()
			s.trace0 = msg.t0
		}
		if msg.batch == nil {
			s.stats.eventsIn.Inc()
			ok = s.serve(msg.ev)
		} else {
			batch := *msg.batch
			i := 0
			for ; i < len(batch); i++ {
				if ok = s.serve(batch[i]); !ok {
					break
				}
			}
			if ok {
				s.stats.eventsIn.Add(int64(len(batch)))
			} else {
				// Only the events that entered serving count as
				// ingested; the unserved remainder of the failing
				// batch is discarded and accounted like the
				// post-failure drain below.
				s.stats.eventsIn.Add(int64(i + 1))
				s.stats.droppedFailed.Add(int64(len(batch) - i - 1))
			}
			s.recycleBatch(msg.batch)
		}
		var tServed time.Time
		if s.trace0 != 0 {
			tServed = time.Now()
		}
		if ok {
			ok = s.commit()
		}
		if s.trace0 != 0 {
			s.rt.obs.finishTrace(s.id, traceN, msg.t0, tHop, tServed)
			s.trace0 = 0
		}
		// Published (or, on failure, dropped): the message is done with.
		if msg.rc != nil {
			msg.rc.release()
		}
		if !ok {
			// Serving failed: keep draining so blocked producers and
			// Close are not wedged on a full channel. The discarded
			// events are counted, and Ingest starts rejecting new
			// ones via the failed flag.
			for msg := range s.in {
				if msg.ckpt != nil {
					msg.ckpt <- shardCkptResult{err: fmt.Errorf("runtime: shard %d: %w", s.id, ErrShardFailed)}
					continue
				}
				s.stats.droppedFailed.Add(msg.size())
				s.discard(msg)
			}
			return
		}
	}
	if s.rt.noFlush.Load() {
		// Freeze: leave trailing windows open. Their open-pane tallies and
		// pane rings travel in the final checkpoint's windower state for
		// the adopting process to resume — flushing here would publish
		// partial windows the handoff peer then could not continue.
		return
	}
	keys := make([]string, 0, len(s.streams))
	for k := range s.streams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		st := s.streams[key]
		s.loadDemand()
		if !s.emit(key, st, st.win.FlushInto(s.wsScratch[:0])) || !s.commit() {
			return
		}
	}
}

// serve processes one ingested event: route it to its stream's windower and
// serve whatever windows the push closed. It reports false once the shard
// has failed.
func (s *shard) serve(e event.Event) bool {
	s.clock++
	key := streamKey(e)
	st := s.lastStream
	if st == nil || key != s.lastKey {
		st = s.streams[key]
		if st == nil {
			st = s.openStream(key, uint64(s.cur.budgetEpoch))
		}
		s.lastKey, s.lastStream = key, st
	}
	st.lastSeen = s.clock
	if evict := s.rt.cfg.EvictAfter; evict > 0 && s.clock%evict == 0 {
		if !s.sweep(evict) {
			return false
		}
	}
	ws, res := st.win.PushInto(e, s.wsScratch[:0])
	switch res {
	case PushLate:
		s.stats.droppedLate.Inc()
	case PushFuture:
		s.stats.droppedFuture.Inc()
	}
	return s.emit(key, st, ws)
}

// openStream registers a new stream under key, its budget ledger opened
// under budgetEpoch.
func (s *shard) openStream(key string, budgetEpoch uint64) *streamState {
	st := &streamState{win: s.rt.cfg.newWindower()}
	if s.led != nil {
		st.bud = s.led.OpenStream(key, budgetEpoch)
	}
	s.streams[key] = st
	s.stats.streams.Inc()
	return st
}

// dropStream frees key's stream state and archives its budget ledger.
func (s *shard) dropStream(key string) {
	delete(s.streams, key)
	if s.led != nil {
		s.led.EvictStream(key)
	}
	s.stats.streamsEvicted.Inc()
}

// sweep flushes and frees the state of every stream that has not seen an
// event for more than evict shard events, bounding memory under stream-key
// churn. Run amortized (every evict events), each stream's state lives at
// most ~2×evict events past its last activity. It reports false on a
// serving error, like emit.
func (s *shard) sweep(evict int64) bool {
	var idle []string
	for key, st := range s.streams {
		if s.clock-st.lastSeen > evict {
			idle = append(idle, key)
		}
	}
	sort.Strings(idle)
	for _, key := range idle {
		st := s.streams[key]
		if !s.emit(key, st, st.win.FlushInto(s.wsScratch[:0])) {
			return false
		}
		s.dropStream(key)
		if s.wal != nil {
			// Logged after the in-memory archive (committed with the
			// message's group commit): a crash in between leaves the
			// stream's spend live instead of retired, never lost.
			s.wal.StageEvict(key)
		}
	}
	// Evicted streams invalidate the lookup cache.
	s.lastKey, s.lastStream = "", nil
	return true
}

// emit is the one serving sequence for the windows a push (or flush) closed:
// decide each window, serve the admitted ones as a single engine batch — so
// the windows draw their noise in stream order and the per-call overhead is
// paid once — and assemble every released answer some sink
// listens to (the shard's demand) into the message's outbox, tagged with the
// stream key, per-stream window index, and the control-plane epoch it was
// served under. Pending epochs are applied before the batch, never within one,
// so each answer's epoch names exactly the query and private sets that
// produced it.
//
// Deciding: with a ledger every window is decided against the stream's grant
// before the engine runs and charged once if admitted (answering n queries
// from one release is post-processing); without one every window is Admitted
// at zero charge — "budget off" is the degenerate grant, so its answers carry
// zero SpentEpsilon/RemainingEpsilon. Windows closed while no query is
// registered are skipped: counted, logged, never served (the window index
// still advances, keeping indices aligned with time). When a WAL is attached
// each decision is staged in the same pass; commit writes the records before
// the outbox leaves. It reports false on the first serving error, which it
// records for Close to surface.
//
// Only emits that actually serve windows are timed — the common
// no-windows-closed call reads no clock, which is what keeps the obs=on hot
// path within noise of obs=off.
func (s *shard) emit(key string, st *streamState, ws []stream.Window) bool {
	s.wsScratch = ws[:0]
	if len(ws) == 0 {
		return true
	}
	if o := s.rt.obs; o != nil {
		defer o.serve[s.id].ObserveSince(time.Now())
	}
	if !s.syncControl() {
		return false
	}
	s.stats.windowsClosed.Add(int64(len(ws)))
	if panes := st.win.Panes(); panes != st.panesSeen {
		s.stats.panesClosed.Add(panes - st.panesSeen)
		st.panesSeen = panes
	}
	l := s.rt.ledger
	epoch := uint64(s.cur.budgetEpoch)
	nq := len(s.cur.targets)
	if nq == 0 && l != nil {
		// Queryless windows release nothing and spend nothing, but they
		// still advance the stream's w-event composition ring.
		l.Skip(st.bud, len(ws))
	}
	s.admScratch = s.admScratch[:0]
	s.outScratch = s.outScratch[:0]
	for i := range ws {
		var out account.Outcome // no ledger: Admitted, nothing spent
		dec, charge := durable.DecisionAdmitted, 0.0
		if nq == 0 {
			// Skipped windows are still logged: replay must advance the
			// stream's window index and ring past them.
			dec = durable.DecisionSkipped
		} else if l != nil {
			out = l.Decide(s.led, st.bud, int64(st.next+i), s.charge, epoch)
			dec = walDecision(out.Decision)
			if dec == durable.DecisionAdmitted {
				charge = s.charge
				s.led.ChargeQueries(charge)
			}
		}
		if dec == durable.DecisionAdmitted {
			s.admScratch = append(s.admScratch, ws[i])
		}
		if s.wal != nil {
			s.wal.StageWindow(key, int64(st.next+i), int64(ws[i].Start), dec, charge, epoch)
		}
		s.outScratch = append(s.outScratch, out)
	}
	served := s.ansScratch[:0]
	if len(s.admScratch) > 0 {
		// The engine runs for every admitted window, demanded or not: its
		// call index and draws are the release, and a later window's noise
		// must not depend on who listened to an earlier one.
		var err error
		if served, err = s.engine.ProcessSelectedInto(served, s.admScratch, s.dem.idx); err != nil {
			return s.fail(err)
		}
		s.ansScratch = served
	}
	// Each released answer is built in its outbox slot, field by field
	// through the slot's pointer: every field is written, since the slot
	// holds an earlier message's answer.
	nd := len(s.dem.idx)
	for i := range ws {
		out := &s.outScratch[i]
		admitted := out.Decision == account.Admitted
		switch out.Decision {
		case account.Admitted:
			// The engine answers window-major, one per demanded query.
			// (A demand implies a registered query, so no window here was
			// skipped.)
		case account.Suppressed, account.Throttled:
			// A data-independent placeholder: computed without touching
			// the window's contents (Detected constant false), so it spends
			// no budget.
		default:
			// Denied: nothing is released; the window index still advances
			// so indices stay aligned with time.
			continue
		}
		base := len(s.outbox)
		s.outbox = slices.Grow(s.outbox, nd)[:base+nd]
		for k := 0; k < nd; k++ {
			a := &s.outbox[base+k]
			a.Stream, a.Shard, a.Epoch = key, s.id, s.cur.epoch
			a.SpentEpsilon, a.RemainingEpsilon = out.Spent, out.Remaining
			a.TraceNanos = s.trace0
			a.WindowIndex = st.next + i
			a.Start, a.End = ws[i].Start, ws[i].End
			if admitted {
				ea := &served[k]
				a.Query, a.Detected, a.Suppressed = ea.Query, ea.Detected, false
			} else {
				a.Query, a.Detected, a.Suppressed = s.cur.targets[s.dem.idx[k]].Name, false, true
			}
		}
		s.outSlot = append(s.outSlot, s.dem.slot...)
		if admitted {
			served = served[nd:]
		}
	}
	st.next += len(ws)
	// The outbox holds only intervals, so the windows' tallies are done
	// with: tumbling ones go back to the windower for its next panes.
	st.win.recycle(ws)
	return true
}

// commit ends one ingest message: it group-commits every WAL record staged
// while serving it with one write — when a WAL is attached — and only then
// hands the message's outbox to the bus: append-before-publish at one
// write(2), and one Deliver per interested sink per message, to the sinks of
// the table loaded when the message started. A commit error (including an
// injected crash) fails the shard and drops the outbox, so nothing is
// published — the one-sided recovery invariant: spend may be over-counted
// after a crash (a charge whose answer never left), never under-counted. A
// message that failed while serving never reaches commit, so it publishes
// nothing either.
func (s *shard) commit() bool {
	if s.wal != nil {
		if err := s.wal.Commit(); err != nil {
			return s.fail(err)
		}
	}
	if len(s.outbox) > 0 {
		// Every outbox answer is demanded, so every one reaches a sink.
		s.rt.bus.publish(s.dem.table, s.outbox, s.outSlot, &s.pubGather)
		s.stats.answersEmitted.Add(int64(len(s.outbox)))
		s.outbox, s.outSlot = s.outbox[:0], s.outSlot[:0]
	}
	return true
}

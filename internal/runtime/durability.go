package runtime

import (
	"context"
	"errors"
	"sort"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/dp"
	"patterndp/internal/durable"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// FsyncPolicy selects when WAL appends are forced to stable storage,
// re-exported from internal/durable: FsyncInterval (default), FsyncAlways,
// FsyncOff. See DurabilityConfig.
type FsyncPolicy = durable.FsyncPolicy

// Fsync policies, re-exported from internal/durable.
const (
	// FsyncInterval syncs on a background interval: process crashes lose
	// nothing (appends bypass user-space buffering), an OS crash loses at
	// most the last interval.
	FsyncInterval = durable.FsyncInterval
	// FsyncAlways syncs before every publish: every published window's
	// charge survives an OS or power crash, and the publish path inherits
	// the disk's sync latency.
	FsyncAlways = durable.FsyncAlways
	// FsyncOff syncs only at checkpoints and on Close.
	FsyncOff = durable.FsyncOff
)

// ParseFsyncPolicy parses a policy name — "interval" | "always" | "off" —
// for CLI flags.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return durable.ParseFsyncPolicy(s) }

// DurabilityConfig enables the durable-state subsystem: a write-ahead log of
// ledger charges, epoch rotations, and registration changes — appended
// before an answer is published — plus periodic checkpoints of windower and
// ledger state, so privacy spend survives restarts. See Config.Durability.
type DurabilityConfig struct {
	// Dir is the WAL directory (required). Reusing a non-empty directory
	// recovers its state: New restores the latest checkpoint, replays the
	// WAL tail, and resumes serving from the recovered epochs; Recovery
	// reports what was restored.
	Dir string
	// Fsync selects the sync policy. Default: FsyncInterval.
	Fsync FsyncPolicy
	// CheckpointEvery, when positive, checkpoints on that cadence in the
	// background. A checkpoint also runs on graceful Close, and Checkpoint
	// triggers one on demand.
	CheckpointEvery time.Duration

	// fs is the file system the WAL writes through; nil is durable.OS. Tests
	// set a crashing one.
	fs durable.FS
}

// RecoverySummary reports what New restored from a non-empty WAL directory.
type RecoverySummary struct {
	// CheckpointID is the restored checkpoint's ID (0 if the directory had
	// only WAL segments).
	CheckpointID uint64
	// Epoch and BudgetEpoch are the control-plane epochs serving resumed
	// from.
	Epoch       Epoch
	BudgetEpoch Epoch
	// Streams counts stream states restored (checkpoint plus replay).
	Streams int
	// ReplayedRecords counts WAL tail records replayed on top of the
	// checkpoint (shard and control records).
	ReplayedRecords int
	// ReplayedSpend is the ε re-charged by replayed admitted windows.
	ReplayedSpend dp.Epsilon
	// RestoredSpend is the ε restored from the checkpoint (live stream
	// spend plus the retired archive).
	RestoredSpend dp.Epsilon
	// Registrations counts registration-change records in the replayed
	// tail. They are an audit trail: the restart's Config supplies the
	// actual private/target sets.
	Registrations int
	// Truncated reports that a torn or corrupted WAL tail was detected and
	// cleanly ignored — the expected shape of a crash.
	Truncated bool
	// SkippedCheckpoints counts checkpoint files that failed CRC validation
	// and were skipped for an older one.
	SkippedCheckpoints int
}

// ErrDurabilityDisabled is returned by Checkpoint when the runtime was built
// without Config.Durability.
var ErrDurabilityDisabled = errors.New("runtime: durability not configured")

// Recovery returns what New restored from the WAL directory, or nil when the
// runtime started fresh (no Durability, or an empty directory).
func (rt *Runtime) Recovery() *RecoverySummary { return rt.recov }

// shardCkptResult is one shard's reply to a checkpoint request.
type shardCkptResult struct {
	sc  durable.ShardCheckpoint
	err error
}

// Checkpoint snapshots the runtime's durable state — every shard's windower
// and ledger state at a quiescent point of its serve loop, stamped with the
// WAL positions already reflected in it — and persists it, pruning WAL
// segments the checkpoint supersedes. Recovery then costs one checkpoint
// load plus the WAL tail. Safe to call while serving; returns ErrClosed
// after Close and ErrDurabilityDisabled without Config.Durability.
func (rt *Runtime) Checkpoint(ctx context.Context) error {
	if rt.durLog == nil {
		return ErrDurabilityDisabled
	}
	// The request flows through each shard's ingest channel so the shard
	// exports between batches — a point where its ledger, windowers, and
	// appender LSN are mutually consistent. The reply channel is buffered
	// for every shard, so replies never block a shard, and the sends below
	// happen under rt.mu like every ingest: a racing Close drains and
	// answers them before shutting the channels.
	reply := make(chan shardCkptResult, len(rt.shards))
	rt.mu.RLock()
	if rt.closed {
		rt.mu.RUnlock()
		return ErrClosed
	}
	sent := 0
	for _, sh := range rt.shards {
		select {
		case sh.in <- ingestMsg{ckpt: reply}:
			sent++
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	rt.mu.RUnlock()
	ck := &durable.Checkpoint{Shards: make([]durable.ShardCheckpoint, 0, sent)}
	var firstErr error
	for i := 0; i < sent; i++ {
		res := <-reply
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		ck.Shards = append(ck.Shards, res.sc)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if firstErr != nil {
		return firstErr
	}
	return rt.writeCheckpoint(ck)
}

// writeCheckpoint stamps the epoch fields onto an assembled per-shard
// snapshot and persists it. The control state and ControlLSN are read under
// ctlMu, which every control record's append-then-publish holds, so the
// checkpoint never claims a record whose state it lacks.
func (rt *Runtime) writeCheckpoint(ck *durable.Checkpoint) error {
	sort.Slice(ck.Shards, func(i, j int) bool { return ck.Shards[i].Shard < ck.Shards[j].Shard })
	rt.ctlMu.Lock()
	ctl := rt.ctl.Load()
	ck.CtlEpoch = uint64(ctl.epoch)
	ck.BudgetEpoch = uint64(ctl.budgetEpoch)
	ck.ControlLSN = rt.durLog.Control().LSN()
	if rt.ledger != nil {
		ck.Rotations = uint64(rt.ledger.Rotations())
	}
	rt.ctlMu.Unlock()
	return rt.durLog.WriteCheckpoint(ck)
}

// exportCheckpoint builds the shard's slice of a checkpoint. It runs on the
// shard goroutine between batches (or after the drain), so every field it
// reads is quiescent and consistent with the appender's committed LSN (0
// without a WAL).
func (s *shard) exportCheckpoint() durable.ShardCheckpoint {
	sc := durable.ShardCheckpoint{Shard: s.id}
	if s.wal != nil {
		sc.WalLSN = s.wal.LSN()
	}
	if s.led != nil {
		sc.Ledger = s.led.ExportState()
	}
	keys := make([]string, 0, len(s.streams))
	for k := range s.streams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		st := s.streams[key]
		stc := durable.StreamCheckpoint{Key: key, Next: st.next, Windower: exportWindower(st.win)}
		if st.bud != nil {
			stc.Budget = account.ExportStream(st.bud)
		}
		sc.Streams = append(sc.Streams, stc)
	}
	return sc
}

// checkpointLoop runs the CheckpointEvery cadence until close.
func (rt *Runtime) checkpointLoop(every time.Duration) {
	defer rt.ckptWG.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-rt.ckptStop:
			return
		case <-tick.C:
			if err := rt.Checkpoint(context.Background()); err != nil {
				// ErrClosed ends the loop; a crash (injected or real WAL
				// failure) has already failed the shards, which Close
				// reports — either way the loop is done.
				return
			}
		}
	}
}

// finalCheckpoint runs after the drain on a graceful close: the shard
// goroutines have exited (windowers flushed, trailing answers published), so
// the export runs synchronously and captures the complete final state.
func (rt *Runtime) finalCheckpoint() error {
	ck := &durable.Checkpoint{Shards: make([]durable.ShardCheckpoint, 0, len(rt.shards))}
	for _, sh := range rt.shards {
		ck.Shards = append(ck.Shards, sh.exportCheckpoint())
	}
	return rt.writeCheckpoint(ck)
}

// walDecision maps a ledger admission decision to its WAL record value.
func walDecision(d account.Decision) durable.Decision {
	switch d {
	case account.Admitted:
		return durable.DecisionAdmitted
	case account.Denied:
		return durable.DecisionDenied
	case account.Throttled:
		return durable.DecisionThrottled
	default:
		return durable.DecisionSuppressed
	}
}

// ledgerDecision maps a WAL decision back for replay (DecisionSkipped is
// handled separately — it never reaches the ledger's decision paths).
func ledgerDecision(d durable.Decision) account.Decision {
	switch d {
	case durable.DecisionAdmitted:
		return account.Admitted
	case durable.DecisionDenied:
		return account.Denied
	case durable.DecisionThrottled:
		return account.Throttled
	default:
		return account.Suppressed
	}
}

// applyRecoveredEpochs seeds the construction control state with the
// recovered epochs: the budget epoch is the max of the checkpoint's and any
// replayed rotation records' (a rotation whose record landed after the
// checkpoint cut must not be lost — re-granting spent streams would
// under-count), and the control epoch resumes at or past both so epoch
// numbering stays monotonic across the restart.
func applyRecoveredEpochs(st *controlState, rec *durable.Recovery) {
	var budget, ctl uint64
	if ck := rec.Checkpoint; ck != nil {
		budget, ctl = ck.BudgetEpoch, ck.CtlEpoch
	}
	b, c := rec.MaxRotationEpoch()
	budget, ctl = max(budget, b), max(ctl, c)
	for _, r := range rec.ControlTail {
		if r.Kind == durable.KindRegistration && r.CtlEpoch > ctl {
			ctl = r.CtlEpoch
		}
	}
	st.epoch = Epoch(max(ctl, budget))
	st.budgetEpoch = Epoch(budget)
}

// restore applies a Recovery to the freshly built (not yet serving) runtime:
// checkpointed ledger aggregates and stream states are restored — re-routed
// through the configured sharder, so the restart may use a different shard
// count — and the WAL tail is replayed on top. Replay is the recovery
// invariant's mechanism: every charge the WAL holds is re-applied whether or
// not its answer was published, so recovered spend can over-count but never
// under-count published answers.
func (rt *Runtime) restore(rec *durable.Recovery) error {
	sum := &RecoverySummary{
		Epoch:              rt.ctl.Load().epoch,
		BudgetEpoch:        rt.ctl.Load().budgetEpoch,
		Truncated:          rec.Truncated,
		SkippedCheckpoints: rec.SkippedCheckpoints,
	}
	var restored dp.Sum
	if ck := rec.Checkpoint; ck != nil {
		sum.CheckpointID = ck.ID
		if rt.ledger != nil {
			rt.ledger.RestoreRotations(int64(ck.Rotations))
		}
		for _, sc := range ck.Shards {
			if rt.ledger != nil {
				// Shard-level aggregates have no stream key to re-route by;
				// folding by modulus keeps them deterministic across
				// restarts with any shard count.
				rt.ledger.Shard(sc.Shard % len(rt.shards)).RestoreAggregates(sc.Ledger)
				restored.Add(sc.Ledger.RetiredSpent)
			}
			for _, stc := range sc.Streams {
				sh := rt.shards[HashSharder{}.Shard(stc.Key, len(rt.shards))]
				st := &streamState{win: rt.cfg.newWindower(), next: stc.Next}
				restoreWindower(st.win, stc.Windower)
				if sh.led != nil {
					st.bud = sh.led.RestoreStream(stc.Key, stc.Budget)
					restored.Add(stc.Budget.Spent)
				}
				sh.streams[stc.Key] = st
				sh.stats.streams.Inc()
			}
		}
	}
	sum.RestoredSpend = dp.Epsilon(restored.Value())

	var replayed dp.Sum
	for _, r := range rec.Tail {
		sum.ReplayedRecords++
		sh := rt.shards[HashSharder{}.Shard(r.Stream, len(rt.shards))]
		switch r.Kind {
		case durable.KindWindow:
			st := sh.streams[r.Stream]
			if st == nil {
				// The stream appeared after the checkpoint cut; its events
				// are lost but its charges are not.
				st = sh.openStream(r.Stream, r.BudgetEpoch)
			}
			if r.WindowIdx < int64(st.next) {
				continue // already covered by the checkpoint
			}
			if sh.led != nil {
				if r.Decision == durable.DecisionSkipped {
					rt.ledger.Skip(st.bud, 1)
				} else {
					rt.ledger.ReplayWindow(sh.led, st.bud, ledgerDecision(r.Decision), r.Charge, r.BudgetEpoch)
					if r.Decision == durable.DecisionAdmitted {
						replayed.Add(r.Charge)
					}
				}
			}
			st.win.advanceTo(event.Timestamp(r.WindowStart) + rt.cfg.WindowWidth)
			st.next = int(r.WindowIdx) + 1
		case durable.KindEvict:
			// A stream evicted before the checkpoint cut holds nothing.
			if sh.streams[r.Stream] != nil {
				sh.dropStream(r.Stream)
			}
		}
	}
	for _, r := range rec.ControlTail {
		sum.ReplayedRecords++
		switch r.Kind {
		case durable.KindRotation:
			if rt.ledger != nil {
				rt.ledger.CountRotation()
			}
		case durable.KindRegistration:
			sum.Registrations++
		}
	}
	sum.ReplayedSpend = dp.Epsilon(replayed.Value())
	for _, sh := range rt.shards {
		sum.Streams += len(sh.streams)
	}
	rt.recov = sum
	return nil
}

// exportWindower serializes one stream's windowing state: watermark
// position, the open panes' tallies and the pane tally ring (both via
// stream.TypeCounts' exported shape). Type tallies are all a windower holds
// of its stream, so a checkpoint never contains an event.
func exportWindower(w *Windower) durable.WindowerState {
	ws := durable.WindowerState{
		Started:   w.started,
		NextStart: w.nextStart,
		MaxTime:   w.maxTime,
		Dropped:   w.dropped,
		Panes:     w.panes,
	}
	if len(w.open) > 0 {
		ws.Open = make([]stream.TypeCounts, len(w.open))
		for i, pane := range w.open {
			ws.Open[i] = pane.Clone()
		}
	}
	if w.ring.n > 0 {
		ws.Ring = make([]stream.TypeCounts, w.ring.n)
		for i := 0; i < w.ring.n; i++ {
			ws.Ring[i] = w.ring.slots[(w.ring.head+i)%w.ring.overlap].Clone()
		}
	}
	return ws
}

// restoreWindower is exportWindower's inverse, applied to a fresh windower.
// A checkpoint written before the windower stopped buffering events carries
// them as Pending instead of Open; they are tallied like a push would.
func restoreWindower(w *Windower, ws durable.WindowerState) {
	w.started = ws.Started
	w.nextStart = ws.NextStart
	w.maxTime = ws.MaxTime
	w.dropped = ws.Dropped
	w.panes = ws.Panes
	for _, pane := range ws.Open {
		w.open = append(w.open, pane.Clone())
	}
	for _, e := range ws.Pending {
		w.tally(e)
	}
	for _, pane := range ws.Ring {
		w.ring.push(pane.Clone())
	}
}

// advanceTo moves the windower past every window ending at or before target
// without cutting them — they were cut, charged, and possibly published
// before the crash; replay must not re-emit them. Skipped panes enter the
// ring empty (their events are lost with the crash — the WAL logs decisions,
// not events) and open tallies the advance strands are dropped: their
// windows are already accounted for.
func (w *Windower) advanceTo(target event.Timestamp) {
	if !w.started {
		w.started = true
		w.nextStart = target
		w.maxTime = target
		return
	}
	for w.nextStart < target {
		w.takeOpen()
		if w.overlap > 1 {
			w.ring.push(nil)
		}
		w.nextStart += w.slide
		w.panes++
	}
	if w.maxTime < w.nextStart {
		w.maxTime = w.nextStart
	}
}

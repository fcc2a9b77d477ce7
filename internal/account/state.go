package account

import (
	"sort"
)

// Ledger state export/restore for the durability subsystem. Export runs at
// per-shard quiescent points (the shard goroutine between batches), restore
// and replay run before serving starts, so none of these need the hot path's
// lock-free discipline.
//
// Restore is written to tolerate a shard-count change across the restart:
// stream states are restored into whichever shard the new sharder routes
// their key to, and shard-level aggregates are *merged* (RestoreAggregates),
// so several old shards may fold into one new shard without losing spend.

// EpochSpend is one retired budget epoch's archived spend, the per-epoch
// breakdown of Snapshot.Retired.
type EpochSpend struct {
	// Epoch is the retired budget epoch.
	Epoch uint64 `json:"epoch"`
	// Spent is the stream spend archived out of that epoch (rotations and
	// evictions).
	Spent float64 `json:"spent"`
}

// StreamState is one stream ledger's exported budget position.
type StreamState struct {
	// Epoch is the budget epoch of the stream's current accumulation.
	Epoch uint64 `json:"epoch"`
	// Spent is the live-epoch sequential spend.
	Spent float64 `json:"spent"`
	// MaxComposed is the lifetime maximum w-event composed loss.
	MaxComposed float64 `json:"max_composed"`
	// Ring is the w-event ring of the last overlap windows' charges;
	// RingAt is the next write position.
	Ring   []float64 `json:"ring,omitempty"`
	RingAt int       `json:"ring_at"`
	// Admitted, Denied, Suppressed are the stream's decision counters.
	Admitted   int64 `json:"admitted"`
	Denied     int64 `json:"denied"`
	Suppressed int64 `json:"suppressed"`
}

// ShardState is one shard sub-ledger's exported aggregate state — everything
// except the live streams, which are exported per stream (ExportStream) so
// restore can re-route them.
type ShardState struct {
	// RetiredSpent is the archived stream spend (evictions + rotations).
	RetiredSpent float64 `json:"retired_spent"`
	// RetiredByEpoch is RetiredSpent broken down by retired budget epoch.
	RetiredByEpoch []EpochSpend `json:"retired_by_epoch,omitempty"`
	// RetiredQueries is the archived per-query attribution.
	RetiredQueries map[string]float64 `json:"retired_queries,omitempty"`
	// LiveQueries is the live epoch's per-query attribution.
	LiveQueries map[string]float64 `json:"live_queries,omitempty"`
	// Admitted, Denied, Suppressed, Throttled are the shard's decision
	// counters.
	Admitted   int64 `json:"admitted"`
	Denied     int64 `json:"denied"`
	Suppressed int64 `json:"suppressed"`
	Throttled  int64 `json:"throttled"`
}

// ExportStream exports one stream ledger's budget position. Must run on the
// owning shard goroutine (or with it quiescent).
func ExportStream(sl *StreamLedger) StreamState {
	st := StreamState{
		Epoch:       sl.epoch.Load(),
		Spent:       sl.sum.Value(),
		MaxComposed: sl.maxComposed.load(),
		RingAt:      sl.ringAt,
		Admitted:    sl.admitted.Load(),
		Denied:      sl.denied.Load(),
		Suppressed:  sl.suppressed.Load(),
	}
	if len(sl.ring) > 0 {
		st.Ring = append([]float64(nil), sl.ring...)
	}
	return st
}

// RestoreStream registers a stream restored from st and returns its ledger,
// like OpenStream for a recovered feed. The composed loss is recomputed from
// the restored ring.
func (sh *ShardLedger) RestoreStream(key string, st StreamState) *StreamLedger {
	sl := &StreamLedger{}
	sl.epoch.Store(st.Epoch)
	sl.sum.Add(st.Spent)
	sl.spent.store(sl.sum.Value())
	if len(st.Ring) > 0 {
		sl.ring = append([]float64(nil), st.Ring...)
		sl.ringAt = st.RingAt % len(sl.ring)
		var s float64
		for _, c := range sl.ring {
			s += c
		}
		sl.composed.store(s)
	}
	maxC := st.MaxComposed
	if c := sl.composed.load(); c > maxC {
		maxC = c
	}
	sl.maxComposed.store(maxC)
	sl.admitted.Add(st.Admitted)
	sl.denied.Add(st.Denied)
	sl.suppressed.Add(st.Suppressed)
	sh.mu.Lock()
	sh.streams[key] = sl
	sh.mu.Unlock()
	return sl
}

// ExportState exports the shard's aggregate state. Must run with the owning
// shard quiescent.
func (sh *ShardLedger) ExportState() ShardState {
	st := ShardState{
		RetiredSpent: sh.retiredSum.Value(),
		Admitted:     sh.admitted.Load(),
		Denied:       sh.denied.Load(),
		Suppressed:   sh.suppressed.Load(),
		Throttled:    sh.throttled.Load(),
	}
	// Folding before the export makes the exported attribution the live
	// one exactly, so a restore resumes from the state the exporter
	// continues from.
	qs := sh.queries.Load()
	sh.mu.Lock()
	qs.fold()
	for epoch, v := range sh.retiredByEpoch {
		st.RetiredByEpoch = append(st.RetiredByEpoch, EpochSpend{Epoch: epoch, Spent: v})
	}
	if len(sh.retired) > 0 {
		st.RetiredQueries = make(map[string]float64, len(sh.retired))
		for name, v := range sh.retired {
			st.RetiredQueries[name] = v
		}
	}
	sh.mu.Unlock()
	sort.Slice(st.RetiredByEpoch, func(i, j int) bool {
		return st.RetiredByEpoch[i].Epoch < st.RetiredByEpoch[j].Epoch
	})
	for i, name := range qs.names {
		if v := qs.carried[i].load(); v != 0 {
			if st.LiveQueries == nil {
				st.LiveQueries = make(map[string]float64)
			}
			st.LiveQueries[name] = v
		}
	}
	return st
}

// RestoreAggregates merges st into the shard — merges, not overwrites, so a
// restart with fewer shards can fold several old shards' aggregates into one.
// Must run before the shard starts serving.
func (sh *ShardLedger) RestoreAggregates(st ShardState) {
	sh.admitted.Add(st.Admitted)
	sh.denied.Add(st.Denied)
	sh.suppressed.Add(st.Suppressed)
	sh.throttled.Add(st.Throttled)
	if st.RetiredSpent != 0 {
		sh.retiredSum.Add(st.RetiredSpent)
		sh.retiredSpent.store(sh.retiredSum.Value())
	}
	sh.mu.Lock()
	for _, es := range st.RetiredByEpoch {
		sh.retiredByEpoch[es.Epoch] += es.Spent
	}
	for name, v := range st.RetiredQueries {
		sh.retired[name] += v
	}
	sh.mu.Unlock()
	if len(st.LiveQueries) == 0 {
		return
	}
	// Restored live attribution follows the restart's installed query set:
	// names still registered keep accumulating in their live cells; names
	// that disappeared across the restart fold into the retired archive,
	// exactly like an unregistration (SetQueries only runs on the next
	// control-state change, so restore must not leave stale names live).
	qs := sh.queries.Load()
	sh.mu.Lock()
	for name, v := range st.LiveQueries {
		if i := sort.SearchStrings(qs.names, name); i < len(qs.names) && qs.names[i] == name {
			qs.carried[i].add(v)
		} else {
			sh.retired[name] += v
		}
	}
	sh.mu.Unlock()
}

// RestoreRotations restores the applied-rotation count from a checkpoint.
func (l *Ledger) RestoreRotations(n int64) { l.rotations.Add(n) }

// ReplayWindow re-applies one WAL window record's ledger effects during
// recovery: the same lazy epoch rotation and record as the live Decide
// path, without making a fresh decision — the decision already happened,
// pre-crash, and may have been published. Admitted replays attribute their
// charge to the restart-time query set. Must run before the shard starts
// serving.
func (l *Ledger) ReplayWindow(sh *ShardLedger, sl *StreamLedger, d Decision, charge float64, epoch uint64) {
	if sl.epoch.Load() != epoch {
		sh.rotateStream(sl, epoch)
	}
	l.record(sh, sl, d, charge)
	if d == Admitted {
		sh.ChargeQueries(charge)
	}
}

package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// Checkpoint file layout:
//
//	magic "PPMCKPT\n" (8) | len u32 | crc u32 (CRC32-IEEE of payload) | payload
//
// where payload is the Checkpoint JSON. The file is written to a temp name,
// fsynced, and renamed into place, so a crash mid-write leaves either the
// previous checkpoint or a torn temp file; the CRC check catches a file
// corrupted at rest. JSON (not the WAL's binary framing) because checkpoints
// are rare, off the hot path, and worth being greppable when debugging a
// recovery.
const ckptMagic = "PPMCKPT\n"

// Checkpoint is a consistent snapshot of everything the WAL alone cannot
// rebuild. Each shard exports at a quiescent point in its serve loop, so a
// shard's ledger state, windower states, and WalLSN are mutually consistent:
// every WAL record with LSN <= WalLSN is already reflected in the snapshot,
// and every record past it must be replayed on top.
type Checkpoint struct {
	// ID orders checkpoints; recovery picks the highest valid one.
	ID uint64 `json:"id"`
	// CtlEpoch and BudgetEpoch are the control-plane and budget epochs at
	// export.
	CtlEpoch    uint64 `json:"ctl_epoch"`
	BudgetEpoch uint64 `json:"budget_epoch"`
	// ControlLSN is the control appender's consumed LSN: rotation and
	// registration records past it are replayed.
	ControlLSN uint64 `json:"control_lsn"`
	// Rotations is the ledger's budget-rotation count.
	Rotations uint64 `json:"rotations"`
	// Shards holds one entry per serving shard.
	Shards []ShardCheckpoint `json:"shards"`
}

// ShardCheckpoint is one shard's slice of the snapshot.
type ShardCheckpoint struct {
	// Shard is the exporting shard's index at snapshot time. Recovery does
	// not require the restart to use the same shard count: streams are
	// re-routed by the configured sharder and shard-level aggregates are
	// folded into the new shard set.
	Shard int `json:"shard"`
	// WalLSN is the shard appender's committed LSN at export.
	WalLSN uint64 `json:"wal_lsn"`
	// Ledger is the shard sub-ledger's exported state.
	Ledger account.ShardState `json:"ledger"`
	// Streams holds the shard's live streams.
	Streams []StreamCheckpoint `json:"streams"`
}

// StreamCheckpoint is one stream's serving state.
type StreamCheckpoint struct {
	// Key is the stream key.
	Key string `json:"key"`
	// Next is the stream's next window index (windows already published).
	Next int `json:"next"`
	// Budget is the stream's budget sub-ledger state (zero value when the
	// runtime serves unbudgeted).
	Budget account.StreamState `json:"budget"`
	// Windower is the stream's windowing state.
	Windower WindowerState `json:"windower"`
}

// WindowerState serializes a stream's Windower: watermark position, the open
// panes' tallies, and the pane tally ring. Both reuse stream.TypeCounts'
// exported shape, so they round-trip without a parallel serialization format
// — and a checkpoint holds type tallies, never event payloads.
type WindowerState struct {
	// Started reports whether the windower has seen any event.
	Started bool `json:"started"`
	// NextStart is the start of the next pane to cut.
	NextStart event.Timestamp `json:"next_start"`
	// MaxTime is the high-watermark event time seen so far.
	MaxTime event.Timestamp `json:"max_time"`
	// Dropped counts events dropped as too-late or beyond-horizon.
	Dropped int64 `json:"dropped"`
	// Panes counts panes cut so far.
	Panes int64 `json:"panes"`
	// Open holds the tallies of the panes at or past the watermark, the one
	// starting at NextStart first. Nil entries are empty panes.
	Open []stream.TypeCounts `json:"open,omitempty"`
	// Pending is decode-only: older checkpoints carried the open panes'
	// events instead of their tallies. Restore folds them into the tallies;
	// nothing writes the field any more.
	Pending []event.Event `json:"pending,omitempty"`
	// Ring is the pane tally ring, oldest pane first; its length is the
	// window overlap (width/slide). Nil entries are empty panes.
	Ring []stream.TypeCounts `json:"ring,omitempty"`
}

// WriteCheckpoint persists ck, assigns it the next checkpoint ID, and prunes
// checkpoints and WAL segments it supersedes. The caller must pass a
// snapshot exported at per-shard quiescent points (see Checkpoint). On error
// nothing is pruned.
func (l *Log) WriteCheckpoint(ck *Checkpoint) error {
	if l.ckptH != nil {
		start := time.Now()
		defer func() {
			l.ckptH.ObserveSince(start)
		}()
	}
	// Make the WAL durable up to the LSNs the checkpoint claims to have
	// consumed before the checkpoint can supersede (and prune) them.
	if err := l.SyncAll(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Checkpoint IDs must stay monotonic in WAL coverage, not just in
	// sequence: a snapshot exported before — but written after — a newer
	// one would get the higher ID, recovery would prefer it, and the newer
	// checkpoint's pruning could already have removed segments the stale
	// one still needs. Skip the stale write instead; the newer checkpoint
	// covers everything it held.
	stale := ck.ControlLSN < l.consumed[ControlShard]
	for _, sc := range ck.Shards {
		if sc.WalLSN < l.consumed[sc.Shard] {
			stale = true
		}
	}
	if stale {
		return nil
	}
	ck.ID = l.ckptSeq + 1
	payload, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("durable: marshal checkpoint: %w", err)
	}
	final := filepath.Join(l.dir, ckptName(ck.ID))
	if err := writeFramed(l.fs, final, ckptMagic, "checkpoint", payload); err != nil {
		return err
	}
	if l.ckptC != nil {
		l.ckptC.Inc()
	}
	l.ckptSeq = ck.ID
	l.consumed[ControlShard] = ck.ControlLSN
	for _, sc := range ck.Shards {
		l.consumed[sc.Shard] = sc.WalLSN
	}
	l.pruneLocked(ck)
	return nil
}

// pruneLocked removes checkpoints older than ck and WAL segments wholly
// covered by it, once l.consumed holds its LSNs. A segment is covered when
// its successor segment exists (so its last LSN is known) and that last LSN
// is at or below the checkpoint's consumed LSN for its appender; segments of
// shards absent from the checkpoint belong to a previous run's larger shard
// set and are covered by any complete snapshot. Active (latest) segments are
// never pruned. Pruning is best-effort: a leftover file costs disk, not
// correctness.
func (l *Log) pruneLocked(ck *Checkpoint) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	type seg struct {
		name     string
		firstLSN uint64
	}
	byShard := map[int][]seg{}
	for _, e := range entries {
		name := e.Name()
		if shard, first, ok := parseSegmentName(name); ok {
			byShard[shard] = append(byShard[shard], seg{name, first})
			continue
		}
		if id, ok := parseCkptName(name); ok && id < ck.ID {
			l.fs.Remove(filepath.Join(l.dir, name)) //nolint:errcheck
		}
	}
	// ReadDir sorts by name, and the fixed-width names sort by first LSN.
	for shard, segs := range byShard {
		lsn, live := l.consumed[shard]
		for i, s := range segs {
			if i == len(segs)-1 {
				break // never prune the active segment
			}
			lastLSN := segs[i+1].firstLSN - 1
			if !live || lastLSN <= lsn {
				l.fs.Remove(filepath.Join(l.dir, s.name)) //nolint:errcheck
			}
		}
	}
}

// readCheckpoint loads and validates one checkpoint file. A torn or
// CRC-corrupt file returns an error so recovery falls back to the previous
// checkpoint.
func readCheckpoint(path string) (*Checkpoint, error) {
	payload, err := readFramed(path, ckptMagic, "checkpoint")
	if err != nil {
		return nil, err
	}
	var ck Checkpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return nil, fmt.Errorf("durable: %s: %w", filepath.Base(path), err)
	}
	return &ck, nil
}

func ckptName(id uint64) string { return fmt.Sprintf("ckpt-%016x.ckpt", id) }

// parseCkptName returns the ID a checkpoint file name carries; it rejects
// other names, e.g. .tmp leftovers.
func parseCkptName(name string) (uint64, bool) {
	var id uint64
	_, err := fmt.Sscanf(name, "ckpt-%016x.ckpt", &id)
	return id, err == nil && name == ckptName(id)
}

func parseSegmentName(name string) (shard int, firstLSN uint64, ok bool) {
	if _, err := fmt.Sscanf(name, "wal-ctl-%016x.log", &firstLSN); err == nil &&
		name == segmentName(ControlShard, firstLSN) {
		return ControlShard, firstLSN, true
	}
	if _, err := fmt.Sscanf(name, "wal-s%04d-%016x.log", &shard, &firstLSN); err == nil &&
		name == segmentName(shard, firstLSN) {
		return shard, firstLSN, true
	}
	return 0, 0, false
}

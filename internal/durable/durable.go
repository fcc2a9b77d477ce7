// Package durable is the streaming runtime's durability subsystem: a
// write-ahead log of privacy-ledger charges, budget-epoch rotations, and
// control-plane registration changes, plus periodic checkpoints of windower
// and ledger state, so privacy spend survives process restarts.
//
// Durability here is a *privacy* requirement, not an ops nicety: if the
// process crashes and restarts with a fresh account.Ledger, previously
// released answers silently compose past the declared ε. The WAL makes the
// ledger's charges outlive the process, and the one-sided recovery invariant
// is the contract every crash state is tested against:
//
//	recovered spend ≥ spend of every answer actually published.
//
// The runtime appends a window record *before* it publishes the window's
// answers, so a crash between charge and publish may leave a charge on disk
// whose answer never reached a subscriber — an over-count, which is
// privacy-safe — but never a published answer whose charge is lost.
//
// # Write-ahead log
//
// Each serving shard owns one single-writer Appender (mirroring the
// single-writer ShardLedger discipline), and the control plane owns one more
// for rotations and registration changes. Appenders write segment files of
// length-prefixed, CRC-checked binary records — the framing idiom of
// internal/event's codecs applied to a binary record stream — and rotate to a
// new segment past a size bound. Records are staged into a reusable buffer
// and committed with one write(2) per emit batch, so the hot path stays
// allocation-free; the write bypasses user-space buffering, which makes every
// committed record survive a *process* crash. Whether it also survives an OS
// or power crash is the fsync policy:
//
//	FsyncAlways   fsync before the commit returns: every commit that returned
//	              nil survives an OS or power crash, and the publish path
//	              inherits the disk's sync latency.
//	FsyncInterval fsync every fsyncEvery (100ms) in the background — process
//	              crashes lose nothing; an OS crash loses at most the records
//	              committed since the last completed sync.
//	FsyncOff      fsync only at checkpoints, segment rotation and Close —
//	              process crashes still lose nothing; an OS crash may lose
//	              the tail since the last checkpoint.
//
// Under every policy a new segment's name is made durable before any record
// is written into it, and a segment is fsynced before the next one starts, so
// a crash cuts only the newest segment's tail; Open refuses an LSN hole.
// Every mutating file-system call goes through the FS seam, which the tests
// replace to rebuild each state a crash may leave.
//
// # Checkpoints and recovery
//
// A checkpoint snapshots everything the WAL alone cannot rebuild — windower
// state (pane tally rings, watermarks, reorder buffers), per-stream window
// indices, and the full ledger state — together with each appender's log
// sequence number (LSN) at the moment its shard exported. Checkpoint files
// are written to a temp name, fsynced, renamed, and the directory fsynced, so
// a crash mid-checkpoint leaves the previous checkpoint intact; a corrupted
// checkpoint is detected by CRC and skipped in favor of the previous one.
// Only a checkpoint whose name is durable prunes the WAL segments and older
// checkpoints it covers.
//
// Recovery (Open) loads the newest valid checkpoint and returns the WAL tail
// — every record past the checkpoint's per-shard LSNs — for the runtime to
// replay: charges re-applied to the restored ledger, window positions
// advanced past already-published windows, evictions and rotations re-run.
// Torn or corrupted tail records are detected by CRC and cleanly ignored
// (they are exactly the writes a crash cut short; nothing after them was
// published, because publishing waits for the commit).
package durable

import (
	"errors"
	"fmt"

	"patterndp/internal/metrics"
)

// FsyncPolicy selects when WAL writes are forced to stable storage. See the
// package documentation for the crash-safety each policy buys.
type FsyncPolicy int

const (
	// FsyncInterval syncs in the background every fsyncEvery.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs before every commit returns.
	FsyncAlways
	// FsyncOff syncs only at checkpoints and on Close.
	FsyncOff
)

// String names the policy for logs and flags.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return "unknown"
	}
}

// Valid reports whether p is a known policy.
func (p FsyncPolicy) Valid() bool { return p >= FsyncInterval && p <= FsyncOff }

// ParseFsyncPolicy parses a policy name as printed by String.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	for p := FsyncInterval; p <= FsyncOff; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q", s)
}

// Options parameterizes a Log. Zero values pick the documented defaults.
type Options struct {
	// Shards is the number of shard appenders (one per serving shard).
	// Required, >= 1.
	Shards int
	// Fsync selects the sync policy. Default: FsyncInterval.
	Fsync FsyncPolicy
	// Metrics, when set, registers WAL and checkpoint instrumentation on
	// the registry: commit, fsync, and checkpoint-write latency histograms
	// plus committed-record counters. Nil leaves the durable layer
	// unmeasured with zero timing overhead on the commit path.
	Metrics *metrics.Registry
	// FS is the file system every mutating call goes through. Default: OS.
	FS FS

	// segmentBytes bounds a segment file's size; an appender rotates to a
	// fresh segment once the bound is passed. 0 = 64 MiB; the package's
	// rotation tests set it small.
	segmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.segmentBytes == 0 {
		o.segmentBytes = 64 << 20
	}
	if o.FS == nil {
		o.FS = OS
	}
	return o
}

func (o Options) validate() error {
	switch {
	case o.Shards < 1:
		return fmt.Errorf("durable: Shards = %d", o.Shards)
	case !o.Fsync.Valid():
		return fmt.Errorf("durable: unknown FsyncPolicy %d", o.Fsync)
	case o.segmentBytes < int64(segmentHeaderSize)+16:
		return fmt.Errorf("durable: segment size %d too small", o.segmentBytes)
	}
	return nil
}

// Kind discriminates WAL record types.
type Kind uint8

const (
	// KindWindow records one decided window release: the stream, its window
	// index, the admission decision, and the charge (the mechanism's
	// per-window pattern-level ε for admitted windows, 0 otherwise).
	// Appended by the owning shard before the window's answers are
	// published.
	KindWindow Kind = 1
	// KindEvict records an idle stream's eviction, so replay archives its
	// spend into the retired total like the live path does.
	KindEvict Kind = 2
	// KindRotation records a budget-epoch rotation (control appender).
	KindRotation Kind = 3
	// KindRegistration records a control-plane registration change (control
	// appender). Registration records are an audit trail — recovery does
	// not re-apply them, since the private/target sets are supplied by the
	// restarting operator's Config.
	KindRegistration Kind = 4
)

// Registration ops for KindRegistration records.
const (
	OpRegisterQuery     uint8 = 0
	OpUnregisterQuery   uint8 = 1
	OpRegisterPrivate   uint8 = 2
	OpUnregisterPrivate uint8 = 3
)

// Decision mirrors the account package's admission decisions in the WAL,
// plus DecisionSkipped for windows that closed while no query was registered
// (they publish and spend nothing but still advance the stream's window
// index and w-event ring).
type Decision uint8

const (
	DecisionAdmitted   Decision = 0
	DecisionDenied     Decision = 1
	DecisionSuppressed Decision = 2
	DecisionThrottled  Decision = 3
	DecisionSkipped    Decision = 4
)

// Record is one decoded WAL record. Kind selects which fields are
// meaningful; Shard and LSN are assigned by the reader from the segment the
// record was found in.
type Record struct {
	// Kind is the record type.
	Kind Kind
	// Shard is the appender the record was written by (ControlShard for the
	// control appender). Set on read.
	Shard int
	// LSN is the record's per-appender log sequence number, starting at 1.
	// Set on read.
	LSN uint64

	// Stream is the stream key (KindWindow, KindEvict).
	Stream string
	// WindowIdx is the stream's window index (KindWindow).
	WindowIdx int64
	// WindowStart is the window's interval start (KindWindow) — what lets
	// replay re-align window indices with stream time for streams that
	// appeared after the last checkpoint.
	WindowStart int64
	// Decision is the admission decision (KindWindow).
	Decision Decision
	// Charge is the admitted release's ε (KindWindow; 0 unless admitted).
	Charge float64
	// BudgetEpoch is the budget epoch the record was written under
	// (KindWindow: the deciding shard's applied epoch; KindRotation: the
	// new epoch).
	BudgetEpoch uint64
	// CtlEpoch is the control-plane epoch (KindRotation, KindRegistration).
	CtlEpoch uint64
	// Op is the registration operation (KindRegistration).
	Op uint8
	// Name is the registered query or private type name (KindRegistration).
	Name string
}

// ControlShard is the shard index the control appender's records carry.
const ControlShard = -1

// ErrClosed is returned by an appender's Commit (and so AppendRotation and
// AppendRegistration) after Close: the staged records are discarded and no
// segment is created.
var ErrClosed = errors.New("durable: closed")

package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Recovery is what Open reconstructed from the WAL directory: the newest
// valid checkpoint (nil if none) and the WAL tail past it, for the runtime
// to replay on top of the restored state.
type Recovery struct {
	// Checkpoint is the newest checkpoint whose CRC verified, or nil.
	Checkpoint *Checkpoint
	// Tail holds shard records past the checkpoint's per-shard consumed
	// LSNs, ordered by (shard, LSN). Records may carry shard indices from a
	// previous run's different shard count; replay routes by stream key.
	Tail []Record
	// ControlTail holds control-appender records past ControlLSN, in LSN
	// order.
	ControlTail []Record
	// Truncated reports that at least one segment ended in a torn or
	// corrupted frame (the expected shape of a crash-cut tail) which was
	// detected and ignored.
	Truncated bool
	// SkippedCheckpoints counts checkpoint files that failed validation
	// (torn or CRC-corrupt) and were skipped in favor of an older one.
	SkippedCheckpoints int
}

// MaxRotationEpoch returns the highest budget epoch among replayed rotation
// records, or 0 if none — recovery resumes from max(checkpoint epoch, this).
func (r *Recovery) MaxRotationEpoch() (budget, ctl uint64) {
	for _, rec := range r.ControlTail {
		if rec.Kind == KindRotation {
			if rec.BudgetEpoch > budget {
				budget = rec.BudgetEpoch
			}
			if rec.CtlEpoch > ctl {
				ctl = rec.CtlEpoch
			}
		}
	}
	return budget, ctl
}

// Open opens (creating if needed) a WAL directory and recovers its state:
// it selects the newest checkpoint that validates, collects the WAL tail
// past it, and positions appenders to continue after the highest committed
// LSNs. A restarted log never appends to a pre-crash segment — each appender
// lazily starts a fresh segment on its first commit, so a torn pre-crash
// tail is left behind for the reader to skip and the pruner to collect. A
// segment that holds no record is removed, since the fresh one takes its
// name. An LSN hole is an error: records are missing while later ones
// survived, so any spend recovered from the directory could under-count.
//
// The returned Log is ready for appends; Log.Recovery reports what was
// recovered (nil for a fresh directory).
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}

	var segPaths, ckpts []string
	for _, e := range entries {
		name := e.Name()
		if _, _, ok := parseSegmentName(name); ok {
			segPaths = append(segPaths, filepath.Join(dir, name))
		} else if _, ok := parseCkptName(name); ok {
			ckpts = append(ckpts, filepath.Join(dir, name))
		} else if filepath.Ext(name) == ".tmp" {
			opts.FS.Remove(filepath.Join(dir, name)) //nolint:errcheck // crash leftover
		}
	}

	// Newest first: the fixed-width hex IDs sort by name.
	rec := &Recovery{}
	var ck *Checkpoint
	var maxCkptID uint64
	sort.Sort(sort.Reverse(sort.StringSlice(ckpts)))
	if len(ckpts) > 0 {
		maxCkptID, _ = parseCkptName(filepath.Base(ckpts[0]))
	}
	for _, p := range ckpts {
		if ck, err = readCheckpoint(p); err == nil {
			break
		}
		rec.SkippedCheckpoints++
	}
	rec.Checkpoint = ck
	consumed := map[int]uint64{}
	if ck != nil {
		consumed[ControlShard] = ck.ControlLSN
		for _, sc := range ck.Shards {
			consumed[sc.Shard] = sc.WalLSN
		}
	}

	// Read every segment, collect tails past the consumed LSNs, and track
	// each appender's highest committed LSN so new segments continue the
	// sequence.
	var segs []segmentData
	for _, p := range segPaths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
		var sd segmentData
		if len(data) >= segmentHeaderSize {
			if sd, err = parseSegment(p, data); err != nil {
				return nil, err
			}
		}
		if len(sd.records) == 0 {
			// A crash cut the segment's creation or its first record.
			rec.Truncated = rec.Truncated || len(data) != segmentHeaderSize
			opts.FS.Remove(p) //nolint:errcheck // a later Open retries
			continue
		}
		segs = append(segs, sd)
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].shard != segs[j].shard {
			return segs[i].shard < segs[j].shard
		}
		return segs[i].firstLSN < segs[j].firstLSN
	})
	if err := checkContiguous(segs, ck, consumed); err != nil {
		return nil, err
	}
	maxLSN := map[int]uint64{}
	for _, sd := range segs {
		if sd.truncated {
			rec.Truncated = true
		}
		last := sd.firstLSN - 1 + uint64(len(sd.records))
		if last > maxLSN[sd.shard] {
			maxLSN[sd.shard] = last
		}
		from := consumed[sd.shard]
		for _, r := range sd.records {
			if r.LSN <= from {
				continue
			}
			if sd.shard == ControlShard {
				rec.ControlTail = append(rec.ControlTail, r)
			} else {
				rec.Tail = append(rec.Tail, r)
			}
		}
	}

	empty := ck == nil && len(rec.Tail) == 0 && len(rec.ControlTail) == 0 &&
		!rec.Truncated && rec.SkippedCheckpoints == 0

	l := &Log{dir: dir, opts: opts, fs: opts.FS, ckptSeq: maxCkptID, consumed: map[int]uint64{}}
	if reg := opts.Metrics; reg != nil {
		l.commitH = reg.Histogram("ppm_wal_commit_seconds", "WAL group-commit write latency (staged records to write(2) return).")
		l.fsyncH = reg.Histogram("ppm_wal_fsync_seconds", "WAL fsync latency (flusher ticks and FsyncAlways commits).")
		l.ckptH = reg.Histogram("ppm_checkpoint_write_seconds", "Checkpoint serialize+write+rename latency.")
		l.committedC = reg.Counter("ppm_wal_records_committed_total", "WAL records committed across all appenders.")
		l.ckptC = reg.Counter("ppm_checkpoints_written_total", "Checkpoints successfully written.")
	}
	if !empty {
		l.recovery = rec
	}
	l.shards = make([]*Appender, opts.Shards)
	for i := range l.shards {
		l.shards[i] = &Appender{log: l, shard: i, lsn: max(maxLSN[i], consumed[i])}
	}
	l.ctl = &Appender{log: l, shard: ControlShard, lsn: max(maxLSN[ControlShard], consumed[ControlShard])}
	l.startFlusher()
	return l, nil
}

// checkContiguous refuses an LSN hole in segs (sorted by shard, then first
// LSN): each segment must start at or before the record after the
// checkpoint's consumed LSN or its predecessor's last. Shards absent from the
// checkpoint are a previous run's larger shard set, which it covers whole
// (pruneLocked keeps only their last segment), so their run starts anywhere.
func checkContiguous(segs []segmentData, ck *Checkpoint, consumed map[int]uint64) error {
	next := map[int]uint64{}
	for _, sd := range segs {
		want, seen := next[sd.shard]
		if !seen {
			c, covered := consumed[sd.shard]
			want = c + 1
			if ck != nil && !covered {
				want = sd.firstLSN
			}
		}
		if sd.firstLSN > want {
			return fmt.Errorf("durable: %s: WAL records %d..%d of appender %d are missing",
				filepath.Base(sd.path), want, sd.firstLSN-1, sd.shard)
		}
		next[sd.shard] = max(want, sd.firstLSN+uint64(len(sd.records)))
	}
	return nil
}

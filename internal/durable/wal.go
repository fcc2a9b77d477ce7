package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"patterndp/internal/metrics"
)

// Segment layout. Every segment starts with a fixed header:
//
//	magic "PPMWAL1\n" (8) | firstLSN u64 | shard+1 u32 (0 = control appender)
//
// followed by framed records:
//
//	len u32 | crc u32 (CRC32-IEEE of payload) | payload
//
// All integers are little-endian. Records never span segments; an appender
// rotates before a commit that would pass the segment size bound. The n-th
// record of a segment (0-based) has LSN = firstLSN + n, so a reader recovers
// exact LSNs from the filename-independent header alone.
const (
	segmentMagic      = "PPMWAL1\n"
	segmentHeaderSize = len(segmentMagic) + 8 + 4
	frameHeaderSize   = 8

	// maxRecordLen bounds a frame's declared payload length. Real records
	// are tens of bytes (a stream key plus a few varints); anything larger
	// is a corrupted length field and the reader stops there rather than
	// trusting it.
	maxRecordLen = 1 << 20
)

// Log owns the WAL directory: one appender per serving shard, one control
// appender, checkpoint files, and the recovery metadata that ties them
// together. Create it with Open, which also performs recovery.
type Log struct {
	dir  string
	opts Options
	fs   FS

	shards []*Appender
	ctl    *Appender

	closeOnce sync.Once
	closeErr  error
	syncDone  chan struct{} // closed to stop the interval flusher
	syncWG    sync.WaitGroup

	mu       sync.Mutex // guards checkpoint writes and pruning
	ckptSeq  uint64     // last written checkpoint ID
	consumed map[int]uint64
	recovery *Recovery

	// Instrumentation (nil without Options.Metrics — appenders gate their
	// clock reads on commitH so the unmeasured commit path pays nothing).
	commitH    *metrics.Histogram
	fsyncH     *metrics.Histogram
	ckptH      *metrics.Histogram
	committedC *metrics.Counter
	ckptC      *metrics.Counter
}

// Shard returns the appender for shard i.
func (l *Log) Shard(i int) *Appender { return l.shards[i] }

// Control returns the control-plane appender.
func (l *Log) Control() *Appender { return l.ctl }

// Recovery returns what Open recovered, or nil for a fresh directory.
func (l *Log) Recovery() *Recovery { return l.recovery }

// SyncAll fsyncs every appender's current segment. A nil return makes every
// record committed before the call durable.
func (l *Log) SyncAll() error {
	for _, a := range append(l.shards[:len(l.shards):len(l.shards)], l.ctl) {
		if err := a.sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the background flusher, syncs, and closes all segment files.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		if l.syncDone != nil {
			close(l.syncDone)
			l.syncWG.Wait()
		}
		for _, a := range append(l.shards[:len(l.shards):len(l.shards)], l.ctl) {
			if err := a.close(); err != nil && l.closeErr == nil {
				l.closeErr = err
			}
		}
	})
	return l.closeErr
}

// fsyncEvery is the background sync cadence under FsyncInterval.
const fsyncEvery = 100 * time.Millisecond

func (l *Log) startFlusher() {
	if l.opts.Fsync != FsyncInterval {
		return
	}
	l.syncDone = make(chan struct{})
	l.syncWG.Add(1)
	go func() {
		defer l.syncWG.Done()
		tick := time.NewTicker(fsyncEvery)
		defer tick.Stop()
		for {
			select {
			case <-l.syncDone:
				return
			case <-tick.C:
				for _, a := range l.shards {
					a.sync() //nolint:errcheck // surfaced by the next Commit
				}
				l.ctl.sync() //nolint:errcheck
			}
		}
	}()
}

// Appender is a single-writer WAL appender: one per serving shard plus one
// for the control plane. The owner stages records into a reusable buffer and
// Commit writes them all with one write(2), assigning consecutive LSNs.
// Stage/Commit are single-goroutine (the owning shard); sync and rotation
// are internally locked against the background flusher.
type Appender struct {
	log   *Log
	shard int // ControlShard for the control appender

	buf    []byte // staged frames, reused across commits
	staged int    // records in buf

	// stageMu serializes the control appender's stage-and-commit Append*
	// methods, which unlike the shard Stage/Commit pairs may be called from
	// many goroutines.
	stageMu sync.Mutex

	mu     sync.Mutex // guards f, size, lsn and closed against the flusher, LSN readers and Close
	f      File
	size   int64
	lsn    uint64 // committed records so far; next record gets lsn+1
	closed bool   // set by Close: a later commit must not open a segment
}

// LSN returns the last committed record's sequence number (0 if none).
func (a *Appender) LSN() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lsn
}

// StageWindow stages a window-release record. Charge must be 0 unless the
// decision is admitted.
func (a *Appender) StageWindow(stream string, windowIdx, windowStart int64, dec Decision, charge float64, budgetEpoch uint64) {
	start := a.beginFrame()
	a.buf = append(a.buf, byte(KindWindow))
	a.buf = binary.AppendUvarint(a.buf, budgetEpoch)
	a.buf = binary.AppendUvarint(a.buf, uint64(windowIdx))
	a.buf = binary.AppendVarint(a.buf, windowStart)
	a.buf = append(a.buf, byte(dec))
	a.buf = binary.LittleEndian.AppendUint64(a.buf, math.Float64bits(charge))
	a.buf = append(a.buf, stream...)
	a.endFrame(start)
}

// StageEvict stages a stream-eviction record.
func (a *Appender) StageEvict(stream string) {
	start := a.beginFrame()
	a.buf = append(a.buf, byte(KindEvict))
	a.buf = append(a.buf, stream...)
	a.endFrame(start)
}

// AppendRotation stages and immediately commits a budget-epoch rotation
// record (control appender; not a hot path).
func (a *Appender) AppendRotation(budgetEpoch, ctlEpoch uint64) error {
	a.stageMu.Lock()
	defer a.stageMu.Unlock()
	start := a.beginFrame()
	a.buf = append(a.buf, byte(KindRotation))
	a.buf = binary.AppendUvarint(a.buf, budgetEpoch)
	a.buf = binary.AppendUvarint(a.buf, ctlEpoch)
	a.endFrame(start)
	return a.Commit()
}

// AppendRegistration stages and immediately commits a registration-change
// record (control appender; not a hot path).
func (a *Appender) AppendRegistration(op uint8, ctlEpoch uint64, name string) error {
	a.stageMu.Lock()
	defer a.stageMu.Unlock()
	start := a.beginFrame()
	a.buf = append(a.buf, byte(KindRegistration))
	a.buf = append(a.buf, op)
	a.buf = binary.AppendUvarint(a.buf, ctlEpoch)
	a.buf = append(a.buf, name...)
	a.endFrame(start)
	return a.Commit()
}

func (a *Appender) beginFrame() int {
	start := len(a.buf)
	a.buf = append(a.buf, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc placeholders
	return start
}

func (a *Appender) endFrame(start int) {
	payload := a.buf[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(a.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(a.buf[start+4:], crc32.ChecksumIEEE(payload))
	a.staged++
}

// Commit writes every staged record with one write(2) — strictly before the
// caller may publish the answers those records cover — and fsyncs it before
// returning under FsyncAlways. On error the staged records are discarded and
// the caller must treat the emit as failed: not publishing is exactly what
// keeps the recovery invariant one-sided.
func (a *Appender) Commit() error {
	if a.staged == 0 {
		return nil
	}
	return a.write()
}

func (a *Appender) write() error {
	var start time.Time
	if a.log.commitH != nil {
		start = time.Now()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		a.discard()
		return ErrClosed
	}
	if a.f == nil || a.size+int64(len(a.buf)) > a.log.opts.segmentBytes {
		if err := a.rotateLocked(); err != nil {
			a.discard()
			return err
		}
	}
	if _, err := a.f.Write(a.buf); err != nil {
		// A partial write leaves a torn tail the reader will skip; the
		// records are treated as never committed.
		a.discard()
		a.abandonLocked()
		return fmt.Errorf("durable: append shard %d: %w", a.shard, err)
	}
	a.size += int64(len(a.buf))
	a.lsn += uint64(a.staged)
	committed := int64(a.staged)
	a.discard()
	if a.log.commitH != nil {
		a.log.commitH.ObserveSince(start)
		a.log.committedC.Add(committed)
	}
	if a.log.opts.Fsync == FsyncAlways {
		if a.log.fsyncH != nil {
			start = time.Now()
		}
		if err := a.f.Sync(); err != nil {
			a.abandonLocked()
			return fmt.Errorf("durable: fsync shard %d: %w", a.shard, err)
		}
		if a.log.fsyncH != nil {
			a.log.fsyncH.ObserveSince(start)
		}
	}
	return nil
}

func (a *Appender) discard() {
	a.buf = a.buf[:0]
	a.staged = 0
}

// abandonLocked makes the next commit start a fresh segment at lsn+1 rather
// than write behind a failed write or fsync. A segment holding committed
// records is marked full, so rotateLocked still fsyncs it before closing it;
// one holding none is removed, because the fresh segment takes its name.
func (a *Appender) abandonLocked() {
	if a.size > int64(segmentHeaderSize) {
		a.size = a.log.opts.segmentBytes
		return
	}
	a.f.Close()                                                              //nolint:errcheck // nothing committed in it
	a.log.fs.Remove(filepath.Join(a.log.dir, segmentName(a.shard, a.lsn+1))) //nolint:errcheck // Open removes it if this fails
	a.f = nil
}

// rotateLocked starts a fresh segment whose first record will be a.lsn+1.
// Also used lazily for the very first commit after Open: a restarted log
// never appends to a pre-crash segment (whose tail may be torn) — it always
// starts a new one. The old segment is fsynced first, and the new one's name
// is made durable before any record is written into it.
func (a *Appender) rotateLocked() error {
	if a.f != nil {
		if err := a.f.Sync(); err != nil {
			// Keep the segment: the next sync or rotation retries it.
			return fmt.Errorf("durable: fsync shard %d: %w", a.shard, err)
		}
		err := a.f.Close()
		a.f = nil
		if err != nil {
			return err
		}
	}
	path := filepath.Join(a.log.dir, segmentName(a.shard, a.lsn+1))
	f, err := a.log.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL)
	if err != nil {
		return fmt.Errorf("durable: create segment: %w", err)
	}
	var hdr [segmentHeaderSize]byte
	copy(hdr[:], segmentMagic)
	binary.LittleEndian.PutUint64(hdr[8:], a.lsn+1)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(a.shard+1))
	if _, err = f.Write(hdr[:]); err == nil {
		err = a.log.fs.SyncDir(a.log.dir)
	}
	if err != nil {
		f.Close()             //nolint:errcheck
		a.log.fs.Remove(path) //nolint:errcheck // Open removes it if this fails
		return fmt.Errorf("durable: create segment: %w", err)
	}
	a.f = f
	a.size = int64(segmentHeaderSize)
	return nil
}

func (a *Appender) sync() error {
	a.mu.Lock()
	f := a.f
	a.mu.Unlock()
	if f == nil {
		return nil
	}
	if a.log.fsyncH == nil {
		return f.Sync()
	}
	start := time.Now()
	err := f.Sync()
	a.log.fsyncH.ObserveSince(start)
	return err
}

func (a *Appender) close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	if a.f == nil {
		return nil
	}
	err := a.f.Sync()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	a.f = nil
	return err
}

func segmentName(shard int, firstLSN uint64) string {
	if shard == ControlShard {
		return fmt.Sprintf("wal-ctl-%016x.log", firstLSN)
	}
	return fmt.Sprintf("wal-s%04d-%016x.log", shard, firstLSN)
}

// segmentData is one parsed segment file.
type segmentData struct {
	path     string
	shard    int
	firstLSN uint64
	records  []Record
	// truncated reports that the segment ended in a torn or CRC-corrupt
	// frame; records holds only the valid prefix.
	truncated bool
}

// parseSegment parses a segment file's bytes, stopping cleanly at the first
// torn or corrupted frame. A file too short for its header, or with a bad
// magic, is rejected with an error; frame-level damage is not an error — it
// is the expected shape of a crash-cut tail.
func parseSegment(path string, data []byte) (segmentData, error) {
	if len(data) < segmentHeaderSize || string(data[:len(segmentMagic)]) != segmentMagic {
		return segmentData{}, fmt.Errorf("durable: %s: not a WAL segment", filepath.Base(path))
	}
	sd := segmentData{
		path:     path,
		firstLSN: binary.LittleEndian.Uint64(data[8:]),
		shard:    int(binary.LittleEndian.Uint32(data[16:])) - 1,
	}
	off := segmentHeaderSize
	for {
		if len(data)-off < frameHeaderSize {
			sd.truncated = off != len(data)
			return sd, nil
		}
		length := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if length > maxRecordLen || int(length) > len(data)-off-frameHeaderSize {
			sd.truncated = true
			return sd, nil
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+int(length)]
		if crc32.ChecksumIEEE(payload) != crc {
			sd.truncated = true
			return sd, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// CRC-valid but undecodable: a format we don't know. Stop, as
			// with a torn tail, rather than misparse.
			sd.truncated = true
			return sd, nil
		}
		rec.Shard = sd.shard
		rec.LSN = sd.firstLSN + uint64(len(sd.records))
		sd.records = append(sd.records, rec)
		off += frameHeaderSize + int(length)
	}
}

func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("durable: empty record")
	}
	rec := Record{Kind: Kind(payload[0])}
	rest := payload[1:]
	switch rec.Kind {
	case KindWindow:
		var ok bool
		if rec.BudgetEpoch, rest, ok = takeUvarint(rest); !ok {
			return Record{}, errShortRecord
		}
		var wi uint64
		if wi, rest, ok = takeUvarint(rest); !ok {
			return Record{}, errShortRecord
		}
		rec.WindowIdx = int64(wi)
		if rec.WindowStart, rest, ok = takeVarint(rest); !ok {
			return Record{}, errShortRecord
		}
		if len(rest) < 1+8 {
			return Record{}, errShortRecord
		}
		rec.Decision = Decision(rest[0])
		if rec.Decision > DecisionSkipped {
			return Record{}, fmt.Errorf("durable: bad decision %d", rest[0])
		}
		rec.Charge = math.Float64frombits(binary.LittleEndian.Uint64(rest[1:]))
		rec.Stream = string(rest[9:])
	case KindEvict:
		rec.Stream = string(rest)
	case KindRotation:
		var ok bool
		if rec.BudgetEpoch, rest, ok = takeUvarint(rest); !ok {
			return Record{}, errShortRecord
		}
		if rec.CtlEpoch, rest, ok = takeUvarint(rest); !ok {
			return Record{}, errShortRecord
		}
		if len(rest) != 0 {
			return Record{}, errShortRecord
		}
	case KindRegistration:
		if len(rest) < 1 {
			return Record{}, errShortRecord
		}
		rec.Op = rest[0]
		if rec.Op > OpUnregisterPrivate {
			return Record{}, fmt.Errorf("durable: bad registration op %d", rec.Op)
		}
		rest = rest[1:]
		var ok bool
		if rec.CtlEpoch, rest, ok = takeUvarint(rest); !ok {
			return Record{}, errShortRecord
		}
		rec.Name = string(rest)
	default:
		return Record{}, fmt.Errorf("durable: unknown record kind %d", payload[0])
	}
	return rec, nil
}

var errShortRecord = fmt.Errorf("durable: short record")

func takeUvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

func takeVarint(b []byte) (int64, []byte, bool) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

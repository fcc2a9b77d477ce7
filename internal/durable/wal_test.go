package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// openTest opens a Log in dir with FsyncOff, applying opts, failing the test
// on error.
func openTest(t *testing.T, dir string, shards int, opts ...func(*Options)) *Log {
	t.Helper()
	o := Options{Shards: shards, Fsync: FsyncOff}
	for _, f := range opts {
		f(&o)
	}
	l, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 2)
	a := l.Shard(0)
	a.StageWindow("s1", 0, 0, DecisionAdmitted, 0.25, 3)
	a.StageWindow("s1", 1, 10, DecisionDenied, 0, 3)
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	a.StageEvict("s1")
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	b := l.Shard(1)
	b.StageWindow("s2", 7, 70, DecisionSkipped, 0, 0)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	ctl := l.Control()
	if err := ctl.AppendRotation(4, 5); err != nil {
		t.Fatal(err)
	}
	if err := ctl.AppendRegistration(OpRegisterQuery, 6, "q1"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir, 2)
	defer l2.Close()
	rec := l2.Recovery()
	if rec == nil {
		t.Fatal("no recovery from non-empty dir")
	}
	if rec.Truncated {
		t.Error("clean log reported truncated")
	}
	if len(rec.Tail) != 4 {
		t.Fatalf("tail = %d records, want 4", len(rec.Tail))
	}
	r0 := rec.Tail[0]
	if r0.Kind != KindWindow || r0.Shard != 0 || r0.LSN != 1 || r0.Stream != "s1" ||
		r0.WindowIdx != 0 || r0.WindowStart != 0 || r0.Decision != DecisionAdmitted ||
		r0.Charge != 0.25 || r0.BudgetEpoch != 3 {
		t.Errorf("record 0 = %+v", r0)
	}
	r1 := rec.Tail[1]
	if r1.Kind != KindWindow || r1.LSN != 2 || r1.Decision != DecisionDenied || r1.Charge != 0 || r1.WindowStart != 10 {
		t.Errorf("record 1 = %+v", r1)
	}
	r2 := rec.Tail[2]
	if r2.Kind != KindEvict || r2.LSN != 3 || r2.Stream != "s1" {
		t.Errorf("record 2 = %+v", r2)
	}
	r3 := rec.Tail[3]
	if r3.Kind != KindWindow || r3.Shard != 1 || r3.LSN != 1 || r3.Stream != "s2" ||
		r3.WindowIdx != 7 || r3.Decision != DecisionSkipped {
		t.Errorf("record 3 = %+v", r3)
	}
	if len(rec.ControlTail) != 2 {
		t.Fatalf("control tail = %d records, want 2", len(rec.ControlTail))
	}
	c0, c1 := rec.ControlTail[0], rec.ControlTail[1]
	if c0.Kind != KindRotation || c0.BudgetEpoch != 4 || c0.CtlEpoch != 5 || c0.Shard != ControlShard {
		t.Errorf("control record 0 = %+v", c0)
	}
	if c1.Kind != KindRegistration || c1.Op != OpRegisterQuery || c1.CtlEpoch != 6 || c1.Name != "q1" {
		t.Errorf("control record 1 = %+v", c1)
	}
	if b, c := rec.MaxRotationEpoch(); b != 4 || c != 5 {
		t.Errorf("MaxRotationEpoch = %d, %d", b, c)
	}
}

// TestWALSegmentRotation checks that LSNs stay continuous across segment
// rotation and that a restart never appends to a pre-crash segment.
func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	small := func(o *Options) { o.segmentBytes = int64(segmentHeaderSize) + 64 }
	l := openTest(t, dir, 1, small)
	a := l.Shard(0)
	const n = 50
	for i := 0; i < n; i++ {
		a.StageWindow("stream", int64(i), int64(i*10), DecisionAdmitted, 0.5, 0)
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.LSN(); got != n {
		t.Fatalf("LSN = %d, want %d", got, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if _, _, ok := parseSegmentName(e.Name()); ok {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("segments = %d, want rotation to several", segs)
	}

	l2 := openTest(t, dir, 1, small)
	rec := l2.Recovery()
	if len(rec.Tail) != n {
		t.Fatalf("tail = %d, want %d", len(rec.Tail), n)
	}
	for i, r := range rec.Tail {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d, want %d", i, r.LSN, i+1)
		}
	}
	// A restarted appender must start a fresh segment, not append to the
	// possibly-torn pre-crash one, and resume LSNs where they left off.
	a2 := l2.Shard(0)
	a2.StageWindow("stream", n, n*10, DecisionAdmitted, 0.5, 0)
	if err := a2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := a2.LSN(); got != n+1 {
		t.Fatalf("resumed LSN = %d, want %d", got, n+1)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openTest(t, dir, 1, small)
	defer l3.Close()
	if tail := l3.Recovery().Tail; len(tail) != n+1 || tail[n].LSN != n+1 {
		t.Fatalf("after resume: tail = %d records, last LSN %d", len(tail), tail[len(tail)-1].LSN)
	}
}

// TestWALTruncatedTail checks that a crash-cut tail (torn frame, corrupted
// payload, corrupted length) is detected and cleanly ignored.
func TestWALTruncatedTail(t *testing.T) {
	write := func(t *testing.T) (string, string, int64) {
		dir := t.TempDir()
		l := openTest(t, dir, 1)
		a := l.Shard(0)
		for i := 0; i < 3; i++ {
			a.StageWindow("s", int64(i), int64(i*10), DecisionAdmitted, 1, 0)
			if err := a.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if shard, _, ok := parseSegmentName(e.Name()); ok && shard == 0 {
				info, _ := e.Info()
				return dir, filepath.Join(dir, e.Name()), info.Size()
			}
		}
		t.Fatal("no segment written")
		return "", "", 0
	}

	t.Run("torn frame", func(t *testing.T) {
		dir, seg, size := write(t)
		if err := os.Truncate(seg, size-5); err != nil {
			t.Fatal(err)
		}
		l := openTest(t, dir, 1)
		defer l.Close()
		rec := l.Recovery()
		if !rec.Truncated {
			t.Error("torn tail not reported")
		}
		if len(rec.Tail) != 2 {
			t.Fatalf("tail = %d, want the 2 intact records", len(rec.Tail))
		}
	})
	t.Run("corrupt payload", func(t *testing.T) {
		dir, seg, size := write(t)
		f, err := os.OpenFile(seg, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0xff}, size-1); err != nil {
			t.Fatal(err)
		}
		f.Close()
		l := openTest(t, dir, 1)
		defer l.Close()
		rec := l.Recovery()
		if !rec.Truncated || len(rec.Tail) != 2 {
			t.Fatalf("truncated=%t tail=%d, want true/2", rec.Truncated, len(rec.Tail))
		}
	})
	t.Run("corrupt length", func(t *testing.T) {
		dir, seg, _ := write(t)
		f, err := os.OpenFile(seg, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Overwrite the second frame's length field with garbage.
		data, _ := os.ReadFile(seg)
		firstLen := int64(frameHeaderSize) + int64(binary.LittleEndian.Uint32(data[segmentHeaderSize:]))
		if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0x7f}, int64(segmentHeaderSize)+firstLen); err != nil {
			t.Fatal(err)
		}
		f.Close()
		l := openTest(t, dir, 1)
		defer l.Close()
		rec := l.Recovery()
		if !rec.Truncated || len(rec.Tail) != 1 {
			t.Fatalf("truncated=%t tail=%d, want true/1", rec.Truncated, len(rec.Tail))
		}
	})
}

func TestCheckpointRecoveryAndPruning(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 1, func(o *Options) { o.segmentBytes = int64(segmentHeaderSize) + 64 })
	a := l.Shard(0)
	for i := 0; i < 20; i++ {
		a.StageWindow("s", int64(i), int64(i*10), DecisionAdmitted, 0.5, 0)
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ck := &Checkpoint{
		BudgetEpoch: 2,
		CtlEpoch:    3,
		ControlLSN:  l.Control().LSN(),
		Shards:      []ShardCheckpoint{{Shard: 0, WalLSN: a.LSN()}},
	}
	if err := l.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	if ck.ID != 1 {
		t.Fatalf("checkpoint ID = %d, want 1", ck.ID)
	}
	// Records past the checkpoint form the replay tail.
	for i := 20; i < 23; i++ {
		a.StageWindow("s", int64(i), int64(i*10), DecisionAdmitted, 0.5, 0)
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir, 1)
	rec := l2.Recovery()
	if rec.Checkpoint == nil || rec.Checkpoint.ID != 1 {
		t.Fatalf("recovered checkpoint = %+v", rec.Checkpoint)
	}
	if rec.Checkpoint.BudgetEpoch != 2 || rec.Checkpoint.CtlEpoch != 3 {
		t.Errorf("epochs = %d/%d, want 2/3", rec.Checkpoint.BudgetEpoch, rec.Checkpoint.CtlEpoch)
	}
	if len(rec.Tail) != 3 {
		t.Fatalf("tail = %d, want only the 3 post-checkpoint records", len(rec.Tail))
	}
	if rec.Tail[0].LSN != 21 {
		t.Errorf("first tail LSN = %d, want 21", rec.Tail[0].LSN)
	}
	// Pruning removed segments wholly covered by the checkpoint: the
	// remaining segments must still hold every LSN past the checkpoint.
	entries, _ := os.ReadDir(dir)
	var lowest uint64
	for _, e := range entries {
		if shard, first, ok := parseSegmentName(e.Name()); ok && shard == 0 {
			if lowest == 0 || first < lowest {
				lowest = first
			}
		}
	}
	if lowest == 1 {
		t.Error("pruning kept the very first segment despite checkpoint coverage")
	}
	if lowest > 21 {
		t.Errorf("pruning removed needed segments: lowest firstLSN = %d, want <= 21", lowest)
	}
	l2.Close()
}

// TestOpenRefusesLSNHole checks that Open refuses a directory whose WAL has
// lost records while later ones survived — a middle segment or the first one
// missing — and still accepts a shard that the newest checkpoint does not
// list, whose earlier segments that checkpoint's pruning removed.
func TestOpenRefusesLSNHole(t *testing.T) {
	small := func(o *Options) { o.segmentBytes = int64(segmentHeaderSize) + 64 }
	// segments commits n records on each of shards appenders and returns
	// the segment names, in LSN order within each appender.
	segments := func(t *testing.T, dir string, shards, n int) []string {
		l := openTest(t, dir, shards, small)
		for s := 0; s < shards; s++ {
			a := l.Shard(s)
			for i := 0; i < n; i++ {
				a.StageWindow("stream", int64(i), int64(i*10), DecisionAdmitted, 0.5, 0)
				if err := a.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, n := range dirNames(t, dir) {
			if _, _, ok := parseSegmentName(n); ok {
				names = append(names, n)
			}
		}
		return names
	}
	for _, middle := range []bool{true, false} {
		t.Run(fmt.Sprintf("middle=%v", middle), func(t *testing.T) {
			dir := t.TempDir()
			names := segments(t, dir, 1, 20)
			victim := names[0]
			if middle {
				victim = names[len(names)/2]
			}
			if err := os.Remove(filepath.Join(dir, victim)); err != nil {
				t.Fatal(err)
			}
			if l, err := Open(dir, Options{Shards: 1, Fsync: FsyncOff}); err == nil {
				l.Close()
				t.Fatalf("Open accepted the WAL without %s", victim)
			}
		})
	}
	t.Run("shard absent from checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		segments(t, dir, 2, 20)
		// A one-shard restart's checkpoint does not list shard 1, so its
		// pruning keeps only shard 1's last segment, which starts past LSN 1.
		l := openTest(t, dir, 1, small)
		if err := l.WriteCheckpoint(&Checkpoint{Shards: []ShardCheckpoint{{Shard: 0, WalLSN: l.Shard(0).LSN()}}}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		openTest(t, dir, 1, small).Close()
	})
}

// TestCheckpointCorruptFallsBack corrupts the newest checkpoint and checks
// recovery falls back to the previous one, counting the skip.
func TestCheckpointCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 1)
	a := l.Shard(0)
	a.StageWindow("s", 0, 0, DecisionAdmitted, 1, 0)
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	ck1 := &Checkpoint{Shards: []ShardCheckpoint{{Shard: 0, WalLSN: a.LSN()}}}
	if err := l.WriteCheckpoint(ck1); err != nil {
		t.Fatal(err)
	}
	a.StageWindow("s", 1, 10, DecisionAdmitted, 1, 0)
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	ck2 := &Checkpoint{Shards: []ShardCheckpoint{{Shard: 0, WalLSN: a.LSN()}}}
	if err := l.WriteCheckpoint(ck2); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// ck2 pruned ck1, so ckpt-2 is the only valid file left. Plant a torn
	// higher-ID checkpoint: recovery must detect it and fall back to ckpt-2.
	path := filepath.Join(dir, "ckpt-0000000000000003.ckpt")
	good, err := os.ReadFile(filepath.Join(dir, "ckpt-0000000000000002.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, good[:len(good)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir, 1)
	defer l2.Close()
	rec := l2.Recovery()
	if rec.SkippedCheckpoints != 1 {
		t.Errorf("SkippedCheckpoints = %d, want 1", rec.SkippedCheckpoints)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.ID != 2 {
		t.Fatalf("fell back to checkpoint %+v, want ID 2", rec.Checkpoint)
	}
}

// TestStaleCheckpointSkipped checks the staleness guard: a snapshot whose LSN
// coverage regresses against an already-written checkpoint is skipped, not
// given a higher ID.
func TestStaleCheckpointSkipped(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 1)
	a := l.Shard(0)
	for i := 0; i < 5; i++ {
		a.StageWindow("s", int64(i), int64(i*10), DecisionAdmitted, 1, 0)
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	stale := &Checkpoint{Shards: []ShardCheckpoint{{Shard: 0, WalLSN: 2}}}
	fresh := &Checkpoint{Shards: []ShardCheckpoint{{Shard: 0, WalLSN: 5}}}
	if err := l.WriteCheckpoint(fresh); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(stale); err != nil {
		t.Fatal(err)
	}
	if stale.ID != 0 {
		t.Errorf("stale checkpoint got ID %d, want skipped", stale.ID)
	}
	l.Close()
	l2 := openTest(t, dir, 1)
	defer l2.Close()
	if rec := l2.Recovery(); rec.Checkpoint == nil || rec.Checkpoint.ID != fresh.ID {
		t.Fatalf("recovered %+v, want the fresh checkpoint %d", rec.Checkpoint, fresh.ID)
	}
}

// TestOpenFreshDir checks a fresh directory yields no recovery and a usable
// log.
func TestOpenFreshDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal")
	l := openTest(t, dir, 2)
	defer l.Close()
	if l.Recovery() != nil {
		t.Error("fresh dir reported recovery")
	}
	if l.Shard(0).LSN() != 0 || l.Control().LSN() != 0 {
		t.Error("fresh appenders with non-zero LSN")
	}
}

// TestAppendAfterCloseRefused checks a closed log stays closed: every commit
// after Close — on a shard appender with an open segment, and on the control
// appender that never had one — returns ErrClosed and leaves the directory
// exactly as Close left it.
func TestAppendAfterCloseRefused(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 1)
	a := l.Shard(0)
	a.StageWindow("s1", 0, 0, DecisionAdmitted, 0.25, 1)
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%s %d", e.Name(), info.Size()))
		}
		return out
	}
	before := listing()

	if err := l.Control().AppendRotation(1, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("AppendRotation after Close = %v, want ErrClosed", err)
	}
	if err := l.Control().AppendRegistration(0, 1, "q"); !errors.Is(err, ErrClosed) {
		t.Errorf("AppendRegistration after Close = %v, want ErrClosed", err)
	}
	a.StageWindow("s1", 1, 10, DecisionAdmitted, 0.25, 1)
	if err := a.Commit(); !errors.Is(err, ErrClosed) {
		t.Errorf("shard Commit after Close = %v, want ErrClosed", err)
	}
	if a.staged != 0 {
		t.Errorf("%d records still staged after a refused commit", a.staged)
	}
	if after := listing(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("directory changed after Close:\nbefore %v\nafter  %v", before, after)
	}
}

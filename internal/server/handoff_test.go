package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/durable"
	"patterndp/internal/faultnet"
	"patterndp/internal/runtime"
)

// newDurableTestRuntime is newTestRuntime plus a WAL directory, for the
// handoff tests that move a partition between processes.
func newDurableTestRuntime(t testing.TB, dir string, budget float64) *runtime.Runtime {
	t.Helper()
	pt, err := core.NewPatternType("secret", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	q, err := cep.ParseQuery("probe", "SEQ(a, b) WITHIN 10", 10)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New(runtime.Config{
		Shards:      2,
		WindowWidth: 10,
		MechanismFor: func(_ int, private []core.PatternType) (core.Mechanism, error) {
			return core.NewUniformPPM(dp.Epsilon(4), private...)
		},
		Private:    []core.PatternType{pt},
		Targets:    []cep.Query{q},
		Seed:       1,
		Budget:     dp.Epsilon(budget),
		Durability: &runtime.DurabilityConfig{Dir: dir, Fsync: runtime.FsyncOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// frozenSpend is the ledger total carried in HandoffCommit.
func frozenSpend(rt *runtime.Runtime) float64 {
	if b := rt.Snapshot().Budget; b != nil {
		return float64(b.Spent) + float64(b.Retired)
	}
	return 0
}

// recoveredSpend is what a recovered runtime restored plus replayed.
func recoveredSpend(rt *runtime.Runtime) float64 {
	rec := rt.Recovery()
	if rec == nil {
		return 0
	}
	return float64(rec.RestoredSpend) + float64(rec.ReplayedSpend)
}

// transferHandoff runs one in-process handoff over a pipe, the receiver
// writing through fsys, returning both sides' results.
func transferHandoff(t testing.TB, fsys durable.FS, srcDir, dstDir string, sessions int, spend float64, crash HandoffCrash) (sendErr error, recvSum HandoffSummary, recvErr error) {
	t.Helper()
	sc, rc := net.Pipe()
	defer sc.Close()
	defer rc.Close()
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		recvSum, recvErr = receiveHandoff(fsys, rc, dstDir, "secret")
	}()
	_, sendErr = SendHandoff(sc, srcDir, "secret", "test-source", sessions, spend, crash)
	sc.Close()
	<-recvDone
	return sendErr, recvSum, recvErr
}

// durableFiles lists dir's non-staging entries.
func durableFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".part") {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestRollingRestartHandoff is the rolling-restart acceptance test: process A
// serves a reconnecting client (ingest + subscription), hands its partition
// off live to process B, and exits; the client resumes against B with its
// session token and sequence space intact. Asserted: the handoff transfers a
// verified file set, B's recovered spend covers A's frozen (and hence
// published) spend, the client's answer stream tiles exactly-once-or-
// explicit-gap across the boundary, and B adopted the spilled session.
func TestRollingRestartHandoff(t *testing.T) {
	dirA, dirB := t.TempDir(), filepath.Join(t.TempDir(), "b")
	rtA := newDurableTestRuntime(t, dirA, 10_000)
	defer rtA.Close()

	cfg := Config{
		Auth:         TokenAuth(0),
		Heartbeat:    100 * time.Millisecond,
		ResumeWindow: 10 * time.Second,
		ReplayBuffer: 64,
	}
	srvA, lA := startServer(t, rtA, cfg)

	// Failover dialer: the client follows whatever listener is current.
	var target atomic.Pointer[MemListener]
	target.Store(lA)
	client, err := Connect(ClientConfig{
		Token:          "alice",
		Dialer:         func() (net.Conn, error) { return target.Load().Dial() },
		Reconnect:      true,
		BackoffMin:     2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sessionBefore := client.Session()

	sub, err := client.Subscribe("probe", 256)
	if err != nil {
		t.Fatal(err)
	}

	// Collector: the exactly-once-or-explicit-gap tiling invariant, same as
	// the chaos soak. A successful resume must not break the seq space, so a
	// synthetic unknown-extent gap (fresh epoch) counts as a resume failure
	// here — unless the parked core was legitimately evicted, which this
	// test's config never does.
	delivered := map[uint64]bool{}
	gapped := map[uint64]bool{}
	var maxSeq uint64
	var epochBreaks int
	var answers, progress atomic.Int64
	lastSpend := map[string]float64{}
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for a := range sub.C {
			progress.Add(1)
			if a.Gap && a.Seq == 0 {
				epochBreaks++
				continue
			}
			if a.Gap {
				for q := a.GapFrom; q <= a.Seq; q++ {
					if delivered[q] || gapped[q] {
						t.Errorf("seq %d covered twice", q)
					}
					gapped[q] = true
				}
				maxSeq = max(maxSeq, a.Seq)
				continue
			}
			if delivered[a.Seq] || gapped[a.Seq] {
				t.Errorf("seq %d delivered twice", a.Seq)
			}
			delivered[a.Seq] = true
			maxSeq = max(maxSeq, a.Seq)
			if a.SpentEpsilon > lastSpend[a.Stream] {
				lastSpend[a.Stream] = a.SpentEpsilon
			}
			answers.Add(1)
		}
	}()

	ingest := func(stream string, from, to int64) {
		for w := from; w < to; w++ {
			for {
				if _, err := client.Ingest(windowEvents(stream, w)); err == nil {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	ingest("s1", 0, 30)
	ingest("s2", 0, 10)

	// --- The handoff: A freezes, spills, ships; B adopts and serves. ---
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srvA.DrainForHandoff()
	if err := srvA.Wait(ctx); err != nil {
		t.Fatalf("drain wait: %v", err)
	}
	if err := rtA.Freeze(ctx); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	frozen := frozenSpend(rtA)
	if frozen <= 0 {
		t.Fatal("no spend accrued before handoff")
	}
	spilled, err := srvA.Spill(dirA)
	if err != nil {
		t.Fatal(err)
	}
	if spilled == 0 {
		t.Fatal("no sessions exported")
	}
	sendErr, recvSum, recvErr := transferHandoff(t, durable.OS, dirA, dirB, spilled, frozen, HandoffCrashNone)
	if sendErr != nil || recvErr != nil {
		t.Fatalf("handoff: send %v recv %v", sendErr, recvErr)
	}
	if recvSum.Sessions != uint64(spilled) || recvSum.Spend != frozen {
		t.Fatalf("commit tallies %+v", recvSum)
	}

	rtB := newDurableTestRuntime(t, dirB, 10_000)
	defer rtB.Close()
	if got := recoveredSpend(rtB); got+1e-9 < frozen {
		t.Fatalf("recovered spend %g < frozen %g", got, frozen)
	}
	srvB, lB := startServer(t, rtB, cfg)
	adopted, err := srvB.Adopt(dirB)
	if err != nil || adopted != spilled {
		t.Fatalf("imported %d of %d sessions (%v)", adopted, spilled, err)
	}
	target.Store(lB)

	// --- The client resumes against B and keeps working. ---
	ingest("s1", 30, 45)
	ingest("s2", 10, 15)

	// Quiesce: no new delivery for half a second.
	quiesceBy := time.Now().Add(10 * time.Second)
	for {
		p := progress.Load()
		time.Sleep(500 * time.Millisecond)
		if answers.Load() > 0 && progress.Load() == p {
			break
		}
		if time.Now().After(quiesceBy) {
			t.Fatal("deliveries never quiesced")
		}
	}
	client.Close()
	<-collectorDone

	if client.Session() != sessionBefore {
		t.Errorf("session token changed across handoff: %q -> %q", sessionBefore, client.Session())
	}
	if epochBreaks != 0 {
		t.Errorf("resume degraded to %d fresh sequence spaces; want a live continuation", epochBreaks)
	}
	if client.Reconnects() == 0 {
		t.Error("client never reconnected despite the handoff")
	}
	for q := uint64(1); q <= maxSeq; q++ {
		if !delivered[q] && !gapped[q] {
			t.Errorf("seq %d lost silently across handoff (max %d)", q, maxSeq)
		}
	}
	stB := srvB.Stats()
	if stB.SessionsImported == 0 {
		t.Error("server B adopted no sessions")
	}
	ts := tenantStats(t, srvB, "alice")
	if ts.Resumes == 0 {
		t.Error("no resume recorded against server B")
	}
	var published float64
	for _, sp := range lastSpend {
		published += sp
	}
	if got := float64(ts.Spend.Spent); got+1e-9 < published {
		t.Errorf("tenant recovered spend %g < published %g", got, published)
	}
	t.Logf("handoff: %d files %d bytes, frozen spend %g; client: %d reconnects, %d answers, %d max seq",
		recvSum.Files, recvSum.Bytes, frozen, client.Reconnects(), answers.Load(), maxSeq)
}

// diesAtSync is a process-crash file system for the handoff receiver: its
// writes reach the files, and every call from its first fsync on fails, as
// if the process died right after its last write.
type diesAtSync struct{ dead atomic.Bool }

type diesAtSyncFile struct {
	durable.File
	fs *diesAtSync
}

var errReceiverCrash = errors.New("receiver process crash")

func (d *diesAtSync) check() error {
	if d.dead.Load() {
		return errReceiverCrash
	}
	return nil
}

func (d *diesAtSync) OpenFile(name string, flag int) (durable.File, error) {
	if err := d.check(); err != nil {
		return nil, err
	}
	f, err := durable.OS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return diesAtSyncFile{f, d}, nil
}

func (d *diesAtSync) Rename(oldpath, newpath string) error {
	if err := d.check(); err != nil {
		return err
	}
	return durable.OS.Rename(oldpath, newpath)
}

func (d *diesAtSync) Remove(name string) error {
	if err := d.check(); err != nil {
		return err
	}
	return durable.OS.Remove(name)
}

func (d *diesAtSync) SyncDir(dir string) error {
	if err := d.check(); err != nil {
		return err
	}
	return durable.OS.SyncDir(dir)
}

func (f diesAtSyncFile) Write(p []byte) (int, error) {
	if err := f.fs.check(); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f diesAtSyncFile) Sync() error {
	f.fs.dead.Store(true)
	return errReceiverCrash
}

func (f diesAtSyncFile) Close() error {
	err := f.File.Close()
	if cerr := f.fs.check(); cerr != nil {
		return cerr
	}
	return err
}

// TestHandoffCrashPoints mirrors TestCrashRecoveryNeverUnderCounts at the
// handoff boundaries: a source that dies before HandoffCommit leaves the
// target empty and its own directory authoritative; one that dies after
// HandoffCommit leaves the target complete and adoptable — unless the
// receiver's process dies too, after its last write and before any fsync or
// rename, which leaves the target without durable state. In every world
// exactly one side can be restarted, and its recovered spend covers the
// frozen (≥ published) spend.
func TestHandoffCrashPoints(t *testing.T) {
	for _, tc := range []struct {
		name         string
		crash        HandoffCrash
		receiverDies bool
	}{
		{"BeforeCommit", HandoffCrashBeforeCommit, false},
		{"AfterCommit", HandoffCrashAfterCommit, false},
		{"ReceiverDiesAfterCommit", HandoffCrashAfterCommit, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirA, dirB := t.TempDir(), filepath.Join(t.TempDir(), "b")
			rtA := newDurableTestRuntime(t, dirA, 10_000)
			for w := int64(0); w < 20; w++ {
				for _, e := range windowEvents("alice/s1", w) {
					if err := rtA.Ingest(e); err != nil {
						t.Fatal(err)
					}
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := rtA.Freeze(ctx); err != nil {
				t.Fatal(err)
			}
			frozen := frozenSpend(rtA)
			if frozen <= 0 {
				t.Fatal("no spend accrued")
			}

			var fsys durable.FS = durable.OS
			if tc.receiverDies {
				fsys = &diesAtSync{}
			}
			sendErr, _, recvErr := transferHandoff(t, fsys, dirA, dirB, 0, frozen, tc.crash)
			if !IsHandoffCrash(sendErr) {
				t.Fatalf("send error = %v, want injected crash", sendErr)
			}

			var authoritative string
			switch {
			case tc.crash == HandoffCrashBeforeCommit || tc.receiverDies:
				// The receiver must refuse and stage nothing durable.
				if recvErr == nil {
					t.Fatal("receiver adopted an uncommitted handoff")
				}
				if files := durableFiles(t, dirB); len(files) != 0 {
					t.Fatalf("uncommitted handoff left files %v in target", files)
				}
				authoritative = dirA
			case tc.crash == HandoffCrashAfterCommit:
				// The receiver has the complete committed set even though the
				// source never saw an ack.
				if recvErr != nil {
					t.Fatalf("receiver refused a committed handoff: %v", recvErr)
				}
				if files := durableFiles(t, dirB); len(files) == 0 {
					t.Fatal("committed handoff left no files in target")
				}
				authoritative = dirB
			}

			rt2 := newDurableTestRuntime(t, authoritative, 10_000)
			defer rt2.Close()
			if got := recoveredSpend(rt2); got+1e-9 < frozen {
				t.Fatalf("recovered spend %g < frozen %g", got, frozen)
			}
			// The surviving side keeps serving.
			for _, e := range windowEvents("alice/s1", 20) {
				if err := rt2.Ingest(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := rt2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHandoffTransferFaults drives handoffs through a fault-injecting
// transport that resets connections mid-chunk. Whatever the injected fate of
// each trial, the world stays unambiguous: a transfer the target refused
// leaves it without durable state and the source directory recoverable; a
// transfer the target committed leaves it adoptable, and the source may have
// failed such a transfer only at its very last step, reading the ack. At
// least one trial must actually have been cut by a reset for the test to
// count.
func TestHandoffTransferFaults(t *testing.T) {
	dirA := t.TempDir()
	rtA := newDurableTestRuntime(t, dirA, 10_000)
	for w := int64(0); w < 50; w++ {
		for _, e := range windowEvents("alice/s1", w) {
			if err := rtA.Ingest(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rtA.Freeze(ctx); err != nil {
		t.Fatal(err)
	}
	frozen := frozenSpend(rtA)

	// A receiver without a token refuses every handoff. Over loopback TCP the
	// socket buffers take the whole transfer, so the refusal cannot deadlock
	// against the sender's writes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dirNoToken := filepath.Join(t.TempDir(), "b")
	noToken := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			noToken <- err
			return
		}
		defer conn.Close()
		_, err = ReceiveHandoff(conn, dirNoToken, "")
		noToken <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, sendErr := SendHandoff(conn, dirA, "secret", "no-token", 0, frozen, HandoffCrashNone)
	conn.Close()
	ln.Close()
	if err := <-noToken; err == nil || sendErr == nil {
		t.Fatalf("handoff to a receiver without a token: recv %v, send %v; want both refused", err, sendErr)
	}
	if files := durableFiles(t, dirNoToken); len(files) != 0 {
		t.Fatalf("refused handoff left files %v in target", files)
	}

	var cut, completed, lostAcks int
	for trial := 0; trial < 12; trial++ {
		dirB := filepath.Join(t.TempDir(), "b")
		mem := NewMemListener()
		fl := faultnet.Wrap(mem, faultnet.Config{Seed: int64(100 + trial), ResetP: 0.08})
		type recvResult struct {
			err error
		}
		recvDone := make(chan recvResult, 1)
		go func() {
			conn, err := fl.Accept()
			if err != nil {
				recvDone <- recvResult{err}
				return
			}
			defer conn.Close()
			_, err = ReceiveHandoff(conn, dirB, "secret")
			recvDone <- recvResult{err}
		}()
		conn, err := mem.Dial()
		if err != nil {
			t.Fatal(err)
		}
		sent, sendErr := SendHandoff(conn, dirA, "secret", fmt.Sprintf("trial-%d", trial), 0, frozen, HandoffCrashNone)
		conn.Close()
		recv := <-recvDone
		fl.Close()

		if recv.err != nil {
			cut++
			if sendErr == nil {
				t.Fatalf("trial %d: source saw an ack the target never sent (recv %v)", trial, recv.err)
			}
			if files := durableFiles(t, dirB); len(files) != 0 {
				t.Fatalf("trial %d: failed transfer left files %v in target", trial, files)
			}
			continue
		}
		// The target committed. The one way the source may still have failed
		// is a reset that tore the ack on its way back: it had sent everything
		// and was reading the ack, the target's set is complete, and the
		// source keeping its directory is the documented, harmless outcome.
		if sendErr != nil {
			lostAcks++
			if !strings.Contains(sendErr.Error(), "handoff ack") {
				t.Fatalf("trial %d: target committed a transfer the source abandoned early: %v", trial, sendErr)
			}
			if files := durableFiles(t, dirB); len(files) != sent.Files {
				t.Fatalf("trial %d: ack lost with %d of %d files in target: %v", trial, len(files), sent.Files, files)
			}
		}
		completed++
		// A committed transfer must be adoptable.
		rtB := newDurableTestRuntime(t, dirB, 10_000)
		if got := recoveredSpend(rtB); got+1e-9 < frozen {
			t.Fatalf("trial %d: recovered spend %g < frozen %g", trial, got, frozen)
		}
		rtB.Close()
	}
	if cut == 0 {
		t.Fatal("no trial was cut by an injected reset; raise ResetP")
	}
	// The source survived every failed attempt.
	rt2 := newDurableTestRuntime(t, dirA, 10_000)
	defer rt2.Close()
	if got := recoveredSpend(rt2); got+1e-9 < frozen {
		t.Fatalf("source recovered spend %g < frozen %g after %d cut transfers", got, frozen, cut)
	}
	t.Logf("transfer faults: %d trials cut, %d completed (%d with the ack lost)", cut, completed, lostAcks)
}

package server

import (
	"context"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"patterndp/internal/durable"
	"patterndp/internal/faultnet"
	"patterndp/internal/runtime"
)

// TestChaosSoak runs the serving layer over a fault-injecting transport —
// injected latency, chunked writes, and periodic forced resets of every live
// connection — while a feeder streams windows and a resilient subscriber
// rides the reconnect/resume machinery. Halfway through the soak the serving
// process performs a live rolling restart: it drains, freezes, hands its
// partition and spilled sessions to a successor, and the clients swing over
// mid-stream. The invariant under test is exactly-once-or-explicit-gap:
// within each session epoch (delimited by synthetic unknown-extent gap
// markers), every sequence number up to the highest observed is either
// delivered exactly once or covered by exactly one explicit gap marker —
// including straight across the handoff boundary. Silent loss and duplicate
// delivery both fail.
func TestChaosSoak(t *testing.T) {
	soak := 3 * time.Second
	if testing.Short() {
		soak = time.Second
	}
	dirA, dirB := t.TempDir(), filepath.Join(t.TempDir(), "b")
	rtA := newDurableTestRuntime(t, dirA, 1_000_000)
	t.Cleanup(func() { rtA.Close() })

	faultCfg := faultnet.Config{
		Seed:     42,
		DelayP:   0.05,
		MaxDelay: 2 * time.Millisecond,
		ChunkP:   0.2,
	}
	cfg := Config{
		Auth:         TokenAuth(0),
		Heartbeat:    100 * time.Millisecond,
		ResumeWindow: 10 * time.Second, // park across every injected reset
		ReplayBuffer: 8,                // small enough to force real gaps
	}
	// startNode serves rt behind a fresh fault-injecting listener.
	startNode := func(rt *runtime.Runtime) (*Server, *MemListener, *faultnet.Listener) {
		ncfg := cfg
		ncfg.Runtime = rt
		s, err := New(ncfg)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMemListener()
		f := faultnet.Wrap(m, faultCfg)
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.Serve(f)
		}()
		t.Cleanup(func() {
			s.Close()
			<-served
		})
		return s, m, f
	}
	srvA, memA, flA := startNode(rtA)

	// Failover dialer: clients follow whatever listener is current.
	var mem atomic.Pointer[MemListener]
	var fl atomic.Pointer[faultnet.Listener]
	mem.Store(memA)
	fl.Store(flA)
	dialer := func() (net.Conn, error) { return mem.Load().Dial() }
	ccfg := ClientConfig{
		Token:          "alice",
		Dialer:         dialer,
		Reconnect:      true,
		BackoffMin:     2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
	}
	subscriber, err := Connect(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer subscriber.Close()
	feeder, err := Connect(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()

	sub, err := subscriber.Subscribe("probe", 256)
	if err != nil {
		t.Fatal(err)
	}

	// Collector: one epoch per synthetic unknown-extent gap (Seq 0). Within
	// an epoch, delivered seqs and explicit gap ranges must tile [1, max]
	// with neither overlap nor holes.
	type epoch struct {
		delivered map[uint64]bool
		gapped    map[uint64]bool
		max       uint64
	}
	newEpoch := func() *epoch {
		return &epoch{delivered: map[uint64]bool{}, gapped: map[uint64]bool{}}
	}
	epochs := []*epoch{newEpoch()}
	var answers, gapMarkers, progress atomic.Int64
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for a := range sub.C {
			progress.Add(1)
			cur := epochs[len(epochs)-1]
			if a.Gap && a.Seq == 0 {
				// Unknown extent: the resume window lapsed; a new sequence
				// space begins.
				epochs = append(epochs, newEpoch())
				gapMarkers.Add(1)
				continue
			}
			if a.Gap {
				gapMarkers.Add(1)
				for q := a.GapFrom; q <= a.Seq; q++ {
					if cur.delivered[q] || cur.gapped[q] {
						t.Errorf("seq %d covered twice (gap over seen range)", q)
					}
					cur.gapped[q] = true
				}
				cur.max = max(cur.max, a.Seq)
				continue
			}
			if cur.delivered[a.Seq] || cur.gapped[a.Seq] {
				t.Errorf("seq %d delivered twice", a.Seq)
			}
			cur.delivered[a.Seq] = true
			cur.max = max(cur.max, a.Seq)
			answers.Add(1)
		}
	}()

	// Feeder: stream windows with retry — requests in flight across a reset
	// fail fast and are retried on the reconnected session.
	feederDone := make(chan int64)
	stopFeeder := make(chan struct{})
	go func() {
		var w int64
		for {
			select {
			case <-stopFeeder:
				feederDone <- w
				return
			default:
			}
			if _, err := feeder.Ingest(windowEvents("s1", w)); err != nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			w++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Chaos driver: reset every live connection on a steady cadence, and at
	// the halfway mark perform one live handoff to a successor process while
	// the feeder and subscriber keep running.
	var resets int
	var srvB *Server
	deadline := time.Now().Add(soak)
	handoffAt := time.Now().Add(soak / 2)
	for time.Now().Before(deadline) {
		time.Sleep(150 * time.Millisecond)
		resets += fl.Load().ResetAll()
		if srvB != nil || time.Now().Before(handoffAt) {
			continue
		}
		// Rolling restart under chaos: A drains and freezes at a pane
		// boundary, spills parked sessions, ships the partition to B; B
		// recovers, adopts the sessions, and the dialer swings over. The
		// collector never pauses — the tiling invariant must hold straight
		// across the boundary.
		hctx, hcancel := context.WithTimeout(context.Background(), 15*time.Second)
		srvA.DrainForHandoff()
		if err := srvA.Wait(hctx); err != nil {
			t.Fatalf("drain wait: %v", err)
		}
		if err := rtA.Freeze(hctx); err != nil {
			t.Fatalf("freeze: %v", err)
		}
		hcancel()
		frozen := frozenSpend(rtA)
		spilled, err := srvA.Spill(dirA)
		if err != nil {
			t.Fatal(err)
		}
		sendErr, _, recvErr := transferHandoff(t, durable.OS, dirA, dirB, spilled, frozen, HandoffCrashNone)
		if sendErr != nil || recvErr != nil {
			t.Fatalf("handoff: send %v recv %v", sendErr, recvErr)
		}
		rtB := newDurableTestRuntime(t, dirB, 1_000_000)
		t.Cleanup(func() { rtB.Close() })
		if got := recoveredSpend(rtB); got+1e-9 < frozen {
			t.Fatalf("recovered spend %g < frozen %g", got, frozen)
		}
		var memB *MemListener
		var flB *faultnet.Listener
		srvB, memB, flB = startNode(rtB)
		if _, err := srvB.Adopt(dirB); err != nil {
			t.Fatal(err)
		}
		mem.Store(memB)
		fl.Store(flB)
	}
	if srvB == nil {
		t.Fatal("soak ended before the mid-soak handoff fired")
	}
	close(stopFeeder)
	fed := <-feederDone

	// Settle: feed two more windows on the now-stable transport so every
	// closed window's answer (and any trailing gap) flushes through.
	for flushed := int64(0); flushed < 2; {
		if _, err := feeder.Ingest(windowEvents("s1", fed+flushed)); err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		flushed++
	}
	// Quiesce: stop once the collector has made progress and then sees no
	// new delivery for half a second.
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
	subscriber.Close()
	<-collectorDone

	// The soak must actually have exercised the machinery.
	if resets == 0 {
		t.Fatal("chaos driver never reset a connection")
	}
	if subscriber.Reconnects() == 0 {
		t.Error("subscriber never resumed a session despite forced resets")
	}
	if answers.Load() == 0 {
		t.Fatal("no answers delivered during soak")
	}
	if srvB.Stats().SessionsImported == 0 {
		t.Error("successor adopted no spilled sessions during the handoff")
	}

	// The invariant: within every epoch, delivered ∪ gapped tiles [1, max].
	for i, ep := range epochs {
		for q := uint64(1); q <= ep.max; q++ {
			if !ep.delivered[q] && !ep.gapped[q] {
				t.Errorf("epoch %d: seq %d lost silently (max %d)", i, q, ep.max)
			}
		}
	}
	ts := tenantStats(t, srvB, "alice")
	t.Logf("soak: %d resets, %d reconnects (subscriber) / %d (feeder), %d answers, %d gap markers, %d epochs, %d sessions adopted; tenant: %d replayed, %d resumes, %d gaps sent, %d dropped, %d write timeouts",
		resets, subscriber.Reconnects(), feeder.Reconnects(), answers.Load(), gapMarkers.Load(), len(epochs), srvB.Stats().SessionsImported,
		ts.AnswersReplayed, ts.Resumes, ts.GapsSent, ts.AnswersDropped, ts.WriteTimeouts)
}

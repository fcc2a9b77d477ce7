package main

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
	"patterndp/internal/server"
)

// drainTimeout bounds the wait for answers a served batch owes. Past it the
// answers count as missing and the run stops.
const drainTimeout = 10 * time.Second

// ringSize is how many recent batches keep their send and ack times for
// latency attribution; answers never lag their batch by this many.
const ringSize = 1 << 16

// gate lets a sender wait until its connection's consumers have received a
// cumulative number of answers.
type gate struct {
	got, need atomic.Int64
	wake      chan struct{} // capacity 1: a pending wake-up is enough
}

func newGate() *gate { return &gate{wake: make(chan struct{}, 1)} }

// arrive records one received answer.
func (g *gate) arrive() {
	if g.got.Add(1) == g.need.Load() {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

// await blocks until n answers have arrived; it reports false on timeout or
// cancellation. The timer is the caller's, reused across calls.
func (g *gate) await(ctx context.Context, n int64, timer *time.Timer) bool {
	g.need.Store(n)
	if g.got.Load() >= n {
		return true
	}
	timer.Reset(drainTimeout)
	defer timer.Stop()
	for {
		select {
		case <-g.wake:
			if g.got.Load() >= n {
				return true
			}
		case <-timer.C:
			return g.got.Load() >= n
		case <-ctx.Done():
			return false
		}
	}
}

// loopConfig selects how the end-to-end loop runs.
type loopConfig struct {
	warmup, timed time.Duration
	// traced records spans, per-batch timings and memory statistics.
	traced bool
}

// loopRun is the shared state of one end-to-end loop run.
type loopRun struct {
	cfg   loopConfig
	in    *input
	t0    time.Time
	stop  atomic.Bool
	conns []*connRun
	// start is the timed section's start in ns since t0; 0 until warm-up
	// ends. Consumers and senders bucket what they measure by it.
	start    atomic.Int64
	sliceLen int64
	nSlices  int
	// events counts events of completed batches across connections.
	events atomic.Int64
}

// now is the run's clock: monotonic ns since t0.
func (l *loopRun) now() int64 { return int64(time.Since(l.t0)) }

// slice is the timed slice a timestamp falls into, -1 outside the timed
// section.
func (l *loopRun) slice(t int64) int {
	s := l.start.Load()
	if s == 0 || t < s {
		return -1
	}
	if i := int((t - s) / l.sliceLen); i < l.nSlices {
		return i
	}
	return -1
}

// connRun is one connection's sender plus its subscription consumers.
type connRun struct {
	run  *loopRun
	ci   *connInput
	cl   *server.Client
	gate *gate
	// sendNs and ackNs hold, per recent batch, when it was sent (closed
	// loop) or due (open loop) and when its ack returned.
	sendNs, ackNs []atomic.Int64
	consumers     []*consumer
	// Sender-owned results.
	last    int64 // last batch sent, -1 before the first
	batches int64
	fails   int64
	late    []int64 // open loop: send lateness per timed batch
	ackDur  []int64 // traced: Ingest duration per timed batch
	buildNs int64   // traced: time spent building timed batches
	built   int64   // traced: events in those batches
	spans   []span
	err     error
}

// consumer drains one subscription, checking and timing every answer.
type consumer struct {
	conn  *connRun
	sub   *server.ClientSub
	check *subChecker
	// lat[i] are the answer latencies received in timed slice i.
	lat [][]int64
	// wait are, traced only, the timed answers' delays past their batch's
	// ack.
	wait []int64
}

func (c *consumer) drain(wg *sync.WaitGroup) {
	defer wg.Done()
	r, l := c.conn, c.conn.run
	for a := range c.sub.C {
		t := l.now()
		if s, w, ok := c.check.observe(&a); ok {
			if i := l.slice(t); i >= 0 {
				g := r.ci.closingBatch(s, w) % ringSize
				c.lat[i] = append(c.lat[i], t-r.sendNs[g].Load())
				if l.cfg.traced {
					c.wait = append(c.wait, max(t-r.ackNs[g].Load(), 0))
				}
			}
		}
		r.gate.arrive()
	}
}

// send is the connection's load generator: closed loop (next batch only
// after the ack and every answer the batch's closed windows owe) or, for a
// paced workload, open loop on a fixed schedule.
func (r *connRun) send(ctx context.Context, wg *sync.WaitGroup, phase time.Duration) {
	defer wg.Done()
	l, wl := r.run, r.run.in.wl
	perWindow := int64(wl.subsPerWindow())
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var buf []event.Event
	for g := int64(0); !l.stop.Load() && ctx.Err() == nil; g++ {
		t := l.now()
		buf = r.ci.fill(buf, g)
		sent := l.now()
		timed := l.slice(sent) >= 0
		if l.cfg.traced && timed {
			r.buildNs += sent - t
			r.built += int64(len(buf))
		}
		stamp := sent
		if wl.Pace > 0 {
			due := int64(phase) + g*int64(wl.Pace)
			if d := due - sent; d > 0 {
				time.Sleep(time.Duration(d))
			}
			sent = l.now()
			if timed = l.slice(sent) >= 0; timed {
				r.late = append(r.late, sent-due)
			}
			stamp = due
		}
		r.sendNs[g%ringSize].Store(stamp)
		// Answers can overtake the ack; until it is stored they wait 0.
		r.ackNs[g%ringSize].Store(math.MaxInt64)
		n, err := r.cl.Ingest(buf)
		acked := l.now()
		r.ackNs[g%ringSize].Store(acked)
		r.last = g
		r.batches++
		if err != nil || n != len(buf) {
			r.fails++
			if err != nil {
				r.err = fmt.Errorf("%s batch %d: %w", r.ci.tenant, g, err)
				return
			}
		}
		if wl.Pace == 0 && !r.gate.await(ctx, r.ci.owedAfter(g)*perWindow, timer) {
			r.err = fmt.Errorf("%s batch %d: owed answers not delivered", r.ci.tenant, g)
			return
		}
		done := l.now()
		l.events.Add(int64(len(buf)))
		if l.cfg.traced && timed {
			r.ackDur = append(r.ackDur, acked-sent)
		}
		if l.cfg.traced && timed && len(r.spans) < maxSpans/4 {
			root := int32(len(r.spans))
			r.spans = append(r.spans,
				span{Name: "client.round_trip", Start: sent, End: done, Parent: -1, Batch: g},
				span{Name: "server.ingest_ack", Start: sent, End: acked, Parent: root, Batch: g})
			if wl.Pace == 0 {
				r.spans = append(r.spans, span{Name: "server.answer_wait", Start: acked, End: done, Parent: root, Batch: g})
			}
		}
	}
	if wl.Pace > 0 && r.last >= 0 && !r.gate.await(ctx, r.ci.owedAfter(r.last)*perWindow, timer) {
		r.err = fmt.Errorf("%s: owed answers not delivered after the last batch", r.ci.tenant)
	}
}

// tick is one reading of the slice sampler.
type tick struct {
	at     int64 // ns since t0
	events int64
	cpu    time.Duration // process user+sys
	heap   uint64        // traced only: heap in use
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loopResult is everything one end-to-end loop run measured.
type loopResult struct {
	// Medians over the timed slices.
	eventsPerS, cpuUsPerEvent, p50Ms, p95Ms float64
	// sliceEventsPerS is the throughput of each timed slice, for the report.
	sliceEventsPerS []float64
	// Over all timed samples.
	p99Ms, maxMs float64
	samples      int
	lateP99Ms    float64
	events       int64 // events of completed batches in the timed section
	wall         time.Duration
	batches      int64 // all batches sent, warm-up included
	expected     int64 // answers owed for those batches
	bad          violations
	conf         metrics.Confusion
	// Traced runs only.
	ackUsP50, waitUsP50 float64
	roundTripNsPerEvent float64
	buildNsPerEvent     float64
	// Heap objects and bytes allocated and GC pause over the timed section.
	mallocs, allocBytes, gcPauseNs uint64
	peakHeap                       uint64
	spans                          []span
	rt                             runtime.Stats
	srv                            server.Stats
	err                            error
}

// runLoop drives the system end to end: warm-up, then the timed section cut
// into slices, then the drain. It returns once every goroutine it started
// has exited; the system itself is left up (the caller tears it down, which
// also ends the consumers).
func runLoop(ctx context.Context, sys *system, ref *reference, cfg loopConfig) *loopResult {
	in := sys.in
	l := &loopRun{cfg: cfg, in: in, t0: time.Now()}
	l.nSlices = max(int(cfg.timed/time.Second), 1)
	l.sliceLen = int64(cfg.timed) / int64(l.nSlices)
	var consumers, senders sync.WaitGroup
	for c, cl := range sys.clients {
		r := &connRun{
			run: l, ci: in.conns[c], cl: cl, gate: newGate(), last: -1,
			sendNs: make([]atomic.Int64, ringSize), ackNs: make([]atomic.Int64, ringSize),
		}
		named := ref.delivered()
		for i, sub := range sys.subs[c] {
			queries := named
			if in.subscribed != nil {
				queries = named[i : i+1]
			}
			k := &consumer{conn: r, sub: sub, check: newSubChecker(ref, c, queries, sys.charge()), lat: make([][]int64, l.nSlices)}
			r.consumers = append(r.consumers, k)
			consumers.Add(1)
			go k.drain(&consumers)
		}
		l.conns = append(l.conns, r)
	}
	for c, r := range l.conns {
		senders.Add(1)
		// Open-loop connections are phased evenly across one period.
		go r.send(ctx, &senders, time.Duration(c)*in.wl.Pace/time.Duration(len(l.conns)))
	}

	res := &loopResult{}
	sleep := func(until int64) {
		select {
		case <-time.After(time.Duration(until - l.now())):
		case <-ctx.Done():
		}
	}
	sleep(int64(cfg.warmup))
	var before goruntime.MemStats
	if cfg.traced {
		goruntime.ReadMemStats(&before)
	}
	read := func() tick {
		t := tick{at: l.now(), events: l.events.Load(), cpu: cpuTime()}
		if cfg.traced {
			var m goruntime.MemStats
			goruntime.ReadMemStats(&m)
			t.heap = m.HeapInuse
			res.mallocs, res.allocBytes, res.gcPauseNs = m.Mallocs-before.Mallocs, m.TotalAlloc-before.TotalAlloc, m.PauseTotalNs-before.PauseTotalNs
		}
		return t
	}
	ticks := []tick{read()}
	l.start.Store(ticks[0].at)
	for i := 1; i <= l.nSlices && ctx.Err() == nil; i++ {
		sleep(ticks[0].at + int64(i)*l.sliceLen)
		ticks = append(ticks, read())
	}
	l.stop.Store(true)
	senders.Wait()
	res.rt, res.srv = sys.rt.Snapshot(), sys.srv.Stats()
	// Closing the clients closes the subscription channels, which ends the
	// consumers; the rest of the system is the caller's to tear down.
	for _, cl := range sys.clients {
		cl.Close()
	}
	consumers.Wait()

	// Per-slice figures, then their medians.
	var eps, cpu, p50, p95 []float64
	var all []int64
	for i := 1; i < len(ticks); i++ {
		ev := float64(ticks[i].events - ticks[i-1].events)
		dt := float64(ticks[i].at-ticks[i-1].at) / 1e9
		if ev == 0 || dt == 0 {
			continue
		}
		eps = append(eps, ev/dt)
		cpu = append(cpu, float64(ticks[i].cpu-ticks[i-1].cpu)/1e3/ev)
		var lat []int64
		for _, r := range l.conns {
			for _, k := range r.consumers {
				lat = append(lat, k.lat[i-1]...)
			}
		}
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		p50 = append(p50, quantile(lat, 0.50)/1e6)
		p95 = append(p95, quantile(lat, 0.95)/1e6)
		all = append(all, lat...)
		res.peakHeap = max(res.peakHeap, ticks[i].heap)
	}
	res.sliceEventsPerS = eps
	res.eventsPerS, res.cpuUsPerEvent = median(eps), median(cpu)
	res.p50Ms, res.p95Ms = median(p50), median(p95)
	slices.Sort(all)
	res.samples = len(all)
	res.p99Ms, res.maxMs = quantile(all, 0.99)/1e6, quantile(all, 1)/1e6
	res.events = ticks[len(ticks)-1].events - ticks[0].events
	res.wall = time.Duration(ticks[len(ticks)-1].at - ticks[0].at)

	var late, ack, wait []int64
	var built, buildNs int64
	perWindow := int64(in.wl.subsPerWindow())
	for _, r := range l.conns {
		res.batches += r.batches
		res.bad.IngestFails += r.fails
		if r.last >= 0 {
			res.expected += r.ci.owedAfter(r.last) * perWindow
		}
		if r.err != nil && res.err == nil {
			res.err = r.err
		}
		for _, k := range r.consumers {
			k.check.finish(r.last)
			res.bad.add(k.check.bad)
			res.conf.Merge(k.check.conf)
			wait = append(wait, k.wait...)
		}
		late = append(late, r.late...)
		ack = append(ack, r.ackDur...)
		built += r.built
		buildNs += r.buildNs
		res.spans = appendSpans(res.spans, r.spans)
	}
	slices.Sort(late)
	res.lateP99Ms = quantile(late, 0.99) / 1e6
	if cfg.traced {
		slices.Sort(ack)
		slices.Sort(wait)
		res.ackUsP50, res.waitUsP50 = quantile(ack, 0.5)/1e3, quantile(wait, 0.5)/1e3
		if len(ack) > 0 && built > 0 {
			res.roundTripNsPerEvent = (mean(ack) + mean(wait)) * float64(len(ack)) / float64(built)
			res.buildNsPerEvent = float64(buildNs) / float64(built)
		}
	}
	if ctx.Err() != nil && res.err == nil {
		res.err = context.Cause(ctx)
	}
	return res
}

// quantile reads the q-th quantile off sorted samples (0 when empty).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[min(int(q*float64(len(sorted))), len(sorted)-1)])
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

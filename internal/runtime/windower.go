// Package runtime is the sharded streaming serving layer on top of the batch
// PrivateEngine: a Runtime owns N shards, each wrapping its own engine and
// mechanism with independently seeded randomness, and serves an unbounded
// multi-stream event feed continuously instead of a pre-materialized slice.
//
// Events are routed to shards by stream key (HashSharder, a hash of
// Event.Source), so each stream is served by exactly one shard and
// its answers are delivered in window order. Within a shard, an incremental
// Windower cuts each stream into tumbling or pane-assembled sliding windows
// as the watermark advances, honoring a configurable lateness policy. Every
// closed window then goes through one sequence, whatever is configured:
// decide (against the stream's privacy-budget ledger; without one every
// window is admitted at zero charge), serve the admitted windows through the
// shard's PrivateEngine, log the decisions (when a WAL is attached), and — at
// the end of the ingest message — commit the log and publish the message's
// answers on the answer bus that data consumers subscribe to per query.
//
// The bus hands each message's answers to its subscribers as one batch per
// subscriber through the Sink interface: Deliver is called on the shard
// goroutine (concurrently across shards, serially per shard), the batch is
// the shard's own buffer and must not be retained, and a Deliver that blocks
// is delivery-side backpressure on that shard. Subscribe returns the
// channel-backed Sink (blocking, lossless); Attach plugs in any other — the
// network server attaches its per-subscription replay rings, which never
// block.
//
// A window costs what its subscribers receive. Each shard reads the bus's
// subscriber table once per ingest message and resolves its demand from it:
// every registered query while a subscribe-all sink is attached, otherwise the
// queries with a named sink. Only those are evaluated, assembled and
// published; the release itself — decision, charge, WAL record, the engine
// call and its draws — is the same whoever listens, so every delivered answer
// is bit-identical to the one a subscribe-all sink would receive. An attach
// takes effect at each shard's next message.
//
// Ingest channels are bounded: a producer whose shard is full waits for it
// (IngestContext bounds the wait) and nothing queued is dropped, Close
// drains every shard gracefully, and Snapshot exposes per-shard serving
// counters.
package runtime

import (
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// LatenessPolicy selects how a Windower treats out-of-order events.
type LatenessPolicy int

const (
	// DropLate closes each window as soon as an event at or past its end
	// arrives; events older than every open window are discarded and
	// counted. Disorder within a still-open window is tolerated (a window
	// is its type tally, which has no order).
	DropLate LatenessPolicy = iota
	// ReorderBuffer holds the watermark AllowedLateness behind the highest
	// observed timestamp, keeping windows open long enough for events up
	// to that much out of order to be tallied into place. Events older than
	// the watermark are still discarded and counted.
	ReorderBuffer
)

// String names the policy for logs and flags.
func (p LatenessPolicy) String() string {
	switch p {
	case DropLate:
		return "drop"
	case ReorderBuffer:
		return "reorder"
	default:
		return "unknown"
	}
}

// PushResult reports what a Windower did with a pushed event.
type PushResult int

const (
	// PushAccepted means the event was assigned to an open window.
	PushAccepted PushResult = iota
	// PushLate means the event was older than every open window and was
	// discarded under the lateness policy.
	PushLate
	// PushFuture means the event jumped further than the horizon past the
	// stream's newest event and was discarded.
	PushFuture
)

// Windower incrementally cuts one stream's unbounded event feed into
// tumbling or sliding windows. It is the streaming counterpart of
// stream.WindowSlice for feeds that are not materialized as a slice: Push
// one event at a time and receive the windows it closes; FlushInto the
// trailing windows when the feed ends. Like WindowSlice it emits empty
// windows for gaps, so window indices stay aligned with time — the empty
// windows are released too, since skipping them would leak which windows
// were empty.
//
// A stream's only representation inside the windower is its type tally: Push
// adds the event's type to the tally of the pane (a slide-wide slice of the
// stream) it falls in and keeps nothing else of it, so an emitted window is its
// interval and TypeCounts — what every PPM reads — as a WindowSlice window is.
// A window is assembled from a ring of the last width/slide pane tallies —
// merge on pane entry, unmerge on pane exit — so the per-window cost is
// O(distinct types), not O(events x overlap); a tumbling window (slide ==
// width) is the one-pane case, whose tally is the window's as is, without the
// ring. Ownership of the emitted TypeCounts differs — see the PushInto
// contract. The shard, which reads a tumbling window's tally only while serving
// it, hands it back through recycle, so a steady stream allocates no tally per
// window either way.
//
// A push finds its type's entry in the pane tally by a linear scan, which
// beats any index on the few types a pane usually holds. Once the earliest
// open pane — the one nearly every in-order event lands in — holds more than
// headScanMax types, the windower indexes it instead (type → entry), so a
// wide type population costs a map lookup per event, not a scan. The index
// only finds entries; the tally, and so every emitted window, is the same
// either way.
//
// A Windower is not safe for concurrent use; in the Runtime each stream's
// windower is owned by a single shard goroutine.
type Windower struct {
	width    event.Timestamp
	slide    event.Timestamp // == width for tumbling windows
	overlap  int             // width / slide
	policy   LatenessPolicy
	lateness event.Timestamp
	horizon  event.Timestamp

	started   bool
	nextStart event.Timestamp // start of the earliest still-open pane
	maxTime   event.Timestamp // highest event timestamp seen
	// open holds the still-open panes' tallies: open[i] is the tally of the
	// pane starting at nextStart + i*slide, in arrival order of each type's
	// first event; nil while the pane is empty.
	open    []stream.TypeCounts
	dropped int64
	panes   int64 // panes cut (tumbling: one per window)

	// head indexes open[0]'s tally once it outgrows headScanMax: the
	// position of each of its first headN entries by type. Built lazily —
	// a windower whose panes stay small never allocates it — and cleared
	// whenever open[0] is taken.
	head  map[event.Type]int32
	headN int

	// ring is the pane tally ring backing sliding-window assembly; it stays
	// empty for tumbling windows.
	ring paneRing
}

// NewSlidingWindower builds a windower cutting sliding windows of the given
// width advancing by slide, which must be a positive divisor of width
// (slide == width cuts tumbling windows: a tumbling window is a one-pane
// window). lateness is only consulted under the ReorderBuffer policy and must
// be non-negative. horizon bounds how far past the stream's newest event one
// event may jump — and therefore how many gap windows a single push can
// force; 0 disables the bound. See the Windower doc for the pane model and
// the PushInto contract for buffer ownership.
func NewSlidingWindower(width, slide event.Timestamp, policy LatenessPolicy, lateness, horizon event.Timestamp) *Windower {
	if width <= 0 {
		panic("runtime: window width must be positive")
	}
	if slide <= 0 || slide > width || width%slide != 0 {
		panic("runtime: window slide must be a positive divisor of the width")
	}
	if lateness < 0 {
		panic("runtime: allowed lateness must be non-negative")
	}
	if horizon < 0 {
		panic("runtime: horizon must be non-negative")
	}
	w := &Windower{width: width, slide: slide, overlap: int(width / slide), policy: policy, lateness: lateness, horizon: horizon}
	w.ring.overlap = w.overlap
	return w
}

// watermark is the time up to which the stream is considered complete: no
// window ending at or before it will admit further events.
func (w *Windower) watermark() event.Timestamp {
	if w.policy == ReorderBuffer {
		return w.maxTime - w.lateness
	}
	return w.maxTime
}

// Push feeds one event and returns the windows it closed, oldest first,
// along with whether the event was accepted or why it was discarded.
func (w *Windower) Push(e event.Event) (closed []stream.Window, res PushResult) {
	return w.PushInto(e, nil)
}

// PushInto is Push appending closed windows into dst, so a streaming caller can
// reuse one window buffer across pushes instead of allocating a slice per cut.
// Windows carry their interval and TypeCounts (nil when empty). A tumbling
// window owns its TypeCounts: it stays valid after dst is reused. A sliding
// window's TypeCounts is windower-owned scratch, valid only until the next
// Push/FlushInto call — callers that retain it must copy.
func (w *Windower) PushInto(e event.Event, dst []stream.Window) (closed []stream.Window, res PushResult) {
	if w.started && w.horizon > 0 && e.Time > w.maxTime+w.horizon {
		// A runaway timestamp would force an unbounded run of gap
		// windows (and poison the watermark, turning every later
		// on-time event into a late drop). Reject it instead.
		w.dropped++
		return dst, PushFuture
	}
	// Snapshots handed out by the previous call are reclaimable now — the
	// PushInto contract bounds their lifetime to one call.
	w.ring.recycleEmitted()
	if !w.started {
		w.started = true
		// The earliest open pane is the one containing the event; the first
		// emitted window is the earliest window covering it, which ends
		// exactly at that pane's end.
		w.nextStart = stream.AlignDown(e.Time, w.slide)
		w.maxTime = e.Time
	}
	if e.Time < w.nextStart {
		w.dropped++
		return dst, PushLate
	}
	w.tally(e)
	if e.Time > w.maxTime {
		w.maxTime = e.Time
	}
	return w.cut(dst, w.watermark()), PushAccepted
}

// headScanMax is the most types the earliest open pane's tally holds while
// tally still finds an entry there by linear scan; past it the pane is
// indexed. Scans win below about ten entries.
const headScanMax = 8

// tally adds the event's type to its open pane's tally — all the windower
// keeps of an event. e.Time must not precede nextStart.
func (w *Windower) tally(e event.Event) {
	idx := int((stream.AlignDown(e.Time, w.slide) - w.nextStart) / w.slide)
	for idx >= len(w.open) {
		w.open = append(w.open, nil)
	}
	pane := w.open[idx]
	if pane == nil {
		// Panes reuse the free list's buffers: the ring's reclaimed slots
		// and snapshots, and the tumbling tallies handed back by recycle.
		if pane = w.ring.takeSlot(); pane == nil {
			pane = make(stream.TypeCounts, 0, 4)
		}
	}
	if idx == 0 && len(pane) > headScanMax {
		w.open[0] = w.tallyHead(pane, e.Type)
		return
	}
	w.open[idx] = pane.Add(e.Type)
}

// tallyHead is pane.Add(t) for open[0]'s tally, finding t's entry through the
// head index, which it first brings up to date with the pane. A new type is
// appended, exactly as Add appends it, so entry order stays first-appearance.
func (w *Windower) tallyHead(pane stream.TypeCounts, t event.Type) stream.TypeCounts {
	if w.head == nil {
		w.head = make(map[event.Type]int32)
	}
	for ; w.headN < len(pane); w.headN++ {
		w.head[pane[w.headN].Type] = int32(w.headN)
	}
	if i, ok := w.head[t]; ok {
		pane[i].N++
		return pane
	}
	w.head[t] = int32(len(pane))
	w.headN++
	return append(pane, stream.TypeCount{Type: t, N: 1})
}

// takeOpen removes and returns the earliest open pane's tally, dropping the
// head index built over it.
func (w *Windower) takeOpen() stream.TypeCounts {
	if len(w.open) == 0 {
		return nil
	}
	if w.headN > 0 {
		clear(w.head)
		w.headN = 0
	}
	pane := w.open[0]
	w.open = w.open[:copy(w.open, w.open[1:])]
	return pane
}

// recycle hands the tallies of the tumbling windows in ws — windows this
// windower emitted, which the caller has finished reading — back to the free
// list that tally takes pane buffers from, so a steady tumbling stream
// allocates no tally per window. Sliding windows' tallies are ring snapshots
// that the next Push/FlushInto reclaims anyway, so it leaves them alone. It is
// unexported because it revokes what PushInto promises an outside caller: a
// tumbling window's TypeCounts outliving the call. Once every caller copies
// the tumbling tallies it keeps, that clause can go, and this folds into the
// ring's recycleEmitted.
func (w *Windower) recycle(ws []stream.Window) {
	if w.overlap > 1 {
		return
	}
	for i := range ws {
		if tc := ws[i].TypeCounts; tc != nil {
			w.ring.free = append(w.ring.free, tc)
		}
	}
}

// FlushInto closes every window still holding or preceding tallied events —
// the stream's trailing windows at shutdown — appending them into dst, and
// resets the windower for a fresh feed. The trailing partially-covered
// sliding windows (those whose interval extends past the last pane) are
// emitted too: every window whose start is at or before the newest event's
// pane is answered. The PushInto ownership contract applies: sliding
// windows' TypeCounts are valid only until the next Push/FlushInto call.
func (w *Windower) FlushInto(dst []stream.Window) []stream.Window {
	if !w.started {
		return dst
	}
	w.ring.recycleEmitted()
	lastPaneEnd := stream.AlignDown(w.maxTime, w.slide) + w.slide
	out := w.cut(dst, lastPaneEnd)
	// Trailing sliding windows still cover the newest panes; emit them by
	// rotating empty panes through the ring, up to the window whose start is
	// the newest event's pane (none when tumbling: the range is empty).
	for s := lastPaneEnd - w.width + w.slide; s < lastPaneEnd; s += w.slide {
		w.ring.push(nil)
		out = append(out, stream.Window{Start: s, End: s + w.width, TypeCounts: w.ring.snapshot()})
	}
	w.ring.reset()
	w.started = false
	return out
}

// Panes returns how many panes the windower has cut. Tumbling windows are
// single panes, so the counter tracks windows there.
func (w *Windower) Panes() int64 { return w.panes }

// cut closes every pane ending at or before the given watermark and appends
// the window ending with each to out. The closed pane's tally goes through
// the ring, which merges it with the overlap-1 panes before it; a one-pane
// (tumbling) window's tally is its pane's, so it skips the ring and keeps
// the buffer as its own.
func (w *Windower) cut(out []stream.Window, watermark event.Timestamp) []stream.Window {
	for w.nextStart+w.slide <= watermark {
		end := w.nextStart + w.slide
		tally := w.takeOpen()
		w.panes++
		if w.overlap > 1 {
			w.ring.push(tally)
			tally = w.ring.snapshot()
		}
		out = append(out, stream.Window{Start: end - w.width, End: end, TypeCounts: tally})
		w.nextStart = end
	}
	return out
}

// paneRing is the tally ring backing sliding-window assembly: the per-type
// tallies of the last overlap panes, plus the running merged tally that is
// snapshotted into each emitted window. Slot and snapshot buffers are
// recycled through a free list, so a steady-state stream allocates nothing
// per pane or window.
type paneRing struct {
	overlap int
	slots   []stream.TypeCounts // per-pane tallies; ring of up to overlap entries
	head, n int
	tally   stream.TypeCounts   // running merge of the ring (may hold zero entries)
	free    []stream.TypeCounts // recycled slot/snapshot buffers and recycled tumbling tallies
	emitted []stream.TypeCounts // snapshots handed out since the last recycle
}

// takeSlot returns a recycled empty tally buffer, or nil when there is none.
func (r *paneRing) takeSlot() stream.TypeCounts {
	if n := len(r.free); n > 0 {
		buf := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return buf[:0]
	}
	return nil
}

// push appends the next pane's tally (nil for an empty pane), evicting the
// oldest pane (and unmerging its contribution) once the ring holds overlap
// panes.
func (r *paneRing) push(tally stream.TypeCounts) {
	if r.slots == nil {
		r.slots = make([]stream.TypeCounts, r.overlap)
	}
	if r.n == r.overlap {
		old := r.slots[r.head]
		r.tally = r.tally.Unmerge(old)
		if old != nil {
			r.free = append(r.free, old)
		}
		r.slots[r.head] = nil
		r.head = (r.head + 1) % r.overlap
		r.n--
	}
	r.slots[(r.head+r.n)%r.overlap] = tally
	r.n++
	r.tally = r.tally.Merge(tally)
}

// snapshot captures the ring's merged tally — the assembled window's
// TypeCounts — into a recycled buffer, dropping the zero entries the running
// tally keeps for stability. The buffer is owned by the ring and reclaimed
// at the next recycleEmitted; empty windows return nil.
func (r *paneRing) snapshot() stream.TypeCounts {
	buf := r.tally.CompactNZ(r.takeSlot())
	if len(buf) == 0 {
		if buf != nil {
			r.free = append(r.free, buf)
		}
		return nil
	}
	r.emitted = append(r.emitted, buf)
	return buf
}

// recycleEmitted reclaims the snapshot buffers handed out by the previous
// Push/FlushInto call, and compacts the running tally's dead entries once they
// outnumber the live ones (a stream whose type population drifts would
// otherwise scan ever-longer tallies).
func (r *paneRing) recycleEmitted() {
	for i, buf := range r.emitted {
		r.free = append(r.free, buf)
		r.emitted[i] = nil
	}
	r.emitted = r.emitted[:0]
	nz := 0
	for _, c := range r.tally {
		if c.N != 0 {
			nz++
		}
	}
	if dead := len(r.tally) - nz; dead > nz && dead > 8 {
		r.tally = r.tally.CompactNZ(r.tally[:0])
	}
}

// reset clears the ring for a fresh feed, keeping the recycled buffers.
func (r *paneRing) reset() {
	for i := range r.slots {
		if r.slots[i] != nil {
			r.free = append(r.free, r.slots[i])
			r.slots[i] = nil
		}
	}
	r.head, r.n = 0, 0
	r.tally = r.tally[:0]
}

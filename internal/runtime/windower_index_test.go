package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// sameTally reports whether two tallies match entry for entry, in order, with
// an empty tally only ever nil.
func sameTally(got, want stream.TypeCounts) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestHeadIndexMatchesLinearTally is the oracle of the open-pane index: over
// seeded streams of 1–64 distinct types per pane, tumbling and sliding, under
// DropLate and under ReorderBuffer with several panes open, through an
// export/restore mid-pane and a final Flush, every emitted window's tally must
// equal a reference built from the raw events alone — each pane tallied by
// linear Add in arrival order, so entries in first-appearance order — entry
// for entry and in the same order. Sliding windows assemble the reference
// pane tallies through a reference ring driven call for call like the
// windower's. Emitted tumbling tallies are recycled after each check, as the
// shard does, so a reused buffer that aliased a live pane would show.
func TestHeadIndexMatchesLinearTally(t *testing.T) {
	indexed := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slide := event.Timestamp(4 + rng.Intn(29))
		overlap := []int{1, 1, 2, 3, 4}[rng.Intn(5)]
		width := slide * event.Timestamp(overlap)
		policy, lateness := DropLate, event.Timestamp(0)
		if rng.Intn(2) == 1 {
			policy, lateness = ReorderBuffer, slide*event.Timestamp(rng.Intn(4))+event.Timestamp(rng.Intn(int(slide)))
		}
		numTypes := 1 + rng.Intn(64)
		types := make([]event.Type, numTypes)
		for i, p := range rng.Perm(numTypes) {
			types[i] = event.Type(fmt.Sprintf("t%02d", p))
		}
		perPane := 1 + rng.Intn(200)
		n := 1000 + rng.Intn(3000)
		restoreAt := map[int]bool{rng.Intn(n): true, rng.Intn(n): true}
		name := fmt.Sprintf("seed %d (slide %d, overlap %d, %v lateness %d, %d types)", seed, slide, overlap, policy, lateness, numTypes)

		w := NewSlidingWindower(width, slide, policy, lateness, 0)
		// The reference: each pane's tally by pane start, and a ring
		// assembling sliding windows from them.
		panes := map[event.Timestamp]stream.TypeCounts{}
		ref := &paneRing{overlap: overlap}
		var lastEnd event.Timestamp
		emitted := false
		check := func(ws []stream.Window) {
			t.Helper()
			ref.recycleEmitted()
			for _, win := range ws {
				if emitted && win.End != lastEnd+slide {
					t.Fatalf("%s: window [%d,%d) follows one ending at %d", name, win.Start, win.End, lastEnd)
				}
				emitted, lastEnd = true, win.End
				pane := panes[win.End-slide]
				delete(panes, win.End-slide)
				want := pane
				if overlap > 1 {
					ref.push(pane)
					want = ref.snapshot()
				}
				if !sameTally(win.TypeCounts, want) {
					t.Fatalf("%s: window [%d,%d) tally %v, reference %v", name, win.Start, win.End, win.TypeCounts, want)
				}
			}
			w.recycle(ws)
		}

		var cur event.Timestamp
		var scratch []stream.Window
		for i := 0; i < n; i++ {
			if rng.Intn(perPane) < int(slide) {
				cur++
			}
			if rng.Intn(500) == 0 {
				cur += event.Timestamp(rng.Intn(4 * int(width)))
			}
			at := cur
			if rng.Intn(10) < 3 {
				at -= event.Timestamp(rng.Intn(int(lateness + slide)))
			}
			e := event.New(types[rng.Intn(rng.Intn(numTypes)+1)], at)
			ws, res := w.PushInto(e, scratch[:0])
			if res == PushAccepted {
				p := stream.AlignDown(at, slide)
				panes[p] = panes[p].Add(e.Type)
			}
			check(ws)
			scratch = ws[:0]
			if w.headN > 0 {
				indexed++
			}
			if restoreAt[i] {
				// Mid-pane: the open panes and the ring travel as tallies;
				// the restored windower rebuilds its index from them.
				fresh := NewSlidingWindower(width, slide, policy, lateness, 0)
				restoreWindower(fresh, exportWindower(w))
				w = fresh
				restored := &paneRing{overlap: overlap}
				for j := 0; j < ref.n; j++ {
					restored.push(ref.slots[(ref.head+j)%overlap].Clone())
				}
				ref = restored
			}
		}
		check(w.FlushInto(scratch[:0]))
		ref.reset()
		for p, pane := range panes {
			t.Fatalf("%s: pane at %d (%v) was never emitted", name, p, pane)
		}
	}
	if indexed == 0 {
		t.Fatal("no push went through the open-pane index")
	}
}

// TestTumblingPushRecycleAllocs pins the steady state the shard runs in: a
// tumbling windower whose emitted tallies are handed back through recycle,
// with panes wide enough to be indexed, tallies and cuts without allocating.
func TestTumblingPushRecycleAllocs(t *testing.T) {
	w := NewSlidingWindower(10, 10, DropLate, 0, 0)
	types := make([]event.Type, 4*headScanMax)
	for i := range types {
		types[i] = event.Type(fmt.Sprintf("t%02d", i))
	}
	var ts event.Timestamp
	var scratch []stream.Window
	pane := func() {
		for i, typ := range types {
			ws, _ := w.PushInto(event.New(typ, ts+event.Timestamp(i%10)), scratch[:0])
			w.recycle(ws)
			scratch = ws[:0]
		}
		ts += 10
	}
	for i := 0; i < 4; i++ {
		pane()
	}
	if w.head == nil {
		t.Fatalf("a %d-type pane was not indexed", len(types))
	}
	if allocs := testing.AllocsPerRun(100, pane); allocs != 0 {
		t.Errorf("a tumbling pane of %d types allocates %v times, want 0", len(types), allocs)
	}
}

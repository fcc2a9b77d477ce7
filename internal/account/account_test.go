package account

import (
	"math"
	"testing"

	"patterndp/internal/dp"
)

func TestParsePolicy(t *testing.T) {
	for p := Deny; p <= Throttle; p++ {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus policy")
	}
}

// decideN runs n sequential decisions for one stream and returns the
// outcomes.
func decideN(l *Ledger, sh *ShardLedger, sl *StreamLedger, n int, charge float64, epoch uint64) []Outcome {
	out := make([]Outcome, n)
	for i := 0; i < n; i++ {
		out[i] = l.Decide(sh, sl, int64(i), charge, epoch)
	}
	return out
}

func TestSpendByNamespace(t *testing.T) {
	l := NewLedger(10, Deny, 1, 2)
	sh0, sh1 := l.Shard(0), l.Shard(1)
	sh0.SetCharge(0.5)
	sh1.SetCharge(0.5)
	// Tenant a: two streams on different shards; tenant b: one stream; one
	// delimiterless stream aggregates under "".
	a1 := sh0.OpenStream("a/s1", 0)
	a2 := sh1.OpenStream("a/s2", 0)
	b1 := sh0.OpenStream("b/s1", 0)
	bare := sh1.OpenStream("bare", 0)
	decideN(l, sh0, a1, 3, 0.5, 0)    // 1.5
	decideN(l, sh1, a2, 1, 0.5, 0)    // 0.5
	decideN(l, sh0, b1, 2, 0.5, 0)    // 1.0
	decideN(l, sh1, bare, 20, 0.5, 0) // exhausts at 10

	got := l.SpendByNamespace('/', 0)
	if len(got) != 3 {
		t.Fatalf("namespaces = %+v, want 3", got)
	}
	want := []struct {
		ns      string
		streams int
		spent   float64
		max     float64
	}{
		{"", 1, 10, 10},
		{"a", 2, 2.0, 1.5},
		{"b", 1, 1.0, 1.0},
	}
	for i, w := range want {
		g := got[i]
		if g.Namespace != w.ns || g.Streams != w.streams ||
			math.Abs(float64(g.Spent)-w.spent) > 1e-9 ||
			math.Abs(float64(g.MaxStreamSpent)-w.max) > 1e-9 {
			t.Errorf("namespace %d = %+v, want %+v", i, g, w)
		}
	}
	if got[0].Exhausted != 1 {
		t.Errorf("bare stream not reported exhausted: %+v", got[0])
	}
	if got[1].Exhausted != 0 || got[2].Exhausted != 0 {
		t.Errorf("unexhausted tenants flagged: %+v", got[1:])
	}
}

func TestDenyEnforcesGrantExactly(t *testing.T) {
	l := NewLedger(1.0, Deny, 1, 1)
	sh := l.Shard(0)
	sl := sh.OpenStream("s", 0)
	const charge = 0.25
	outs := decideN(l, sh, sl, 8, charge, 0)
	admitted := 0
	for i, o := range outs {
		if i < 4 && o.Decision != Admitted {
			t.Fatalf("window %d: %v, want admitted", i, o.Decision)
		}
		if i >= 4 && o.Decision != Denied {
			t.Fatalf("window %d: %v, want denied", i, o.Decision)
		}
		if o.Decision == Admitted {
			admitted++
		}
	}
	if got := sl.spent.load(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spent = %v, want 1.0", got)
	}
	if float64(admitted)*charge > 1.0+dp.SpendTolerance(1.0) {
		t.Fatalf("admitted %d releases: composition exceeds grant", admitted)
	}
	if rem := outs[3].Remaining; rem != 0 {
		t.Fatalf("remaining after full spend = %v", rem)
	}
}

func TestSuppressKeepsCadence(t *testing.T) {
	l := NewLedger(0.5, Suppress, 1, 1)
	sh := l.Shard(0)
	sl := sh.OpenStream("s", 0)
	outs := decideN(l, sh, sl, 4, 0.25, 0)
	want := []Decision{Admitted, Admitted, Suppressed, Suppressed}
	for i, o := range outs {
		if o.Decision != want[i] {
			t.Fatalf("window %d: %v, want %v", i, o.Decision, want[i])
		}
	}
	if sp := sl.spent.load(); math.Abs(sp-0.5) > 1e-12 {
		t.Fatalf("suppressed releases were charged: spent = %v", sp)
	}
}

func TestThrottleHalvesCadenceThenDenies(t *testing.T) {
	// Grant 1.0, charge 0.1: low-water at 0.25 means remaining-after-charge
	// < 0.25 from the 7th admitted release on; odd window indices are then
	// throttled until the budget truly runs out, after which windows are
	// denied.
	l := NewLedger(1.0, Throttle, 1, 1)
	sh := l.Shard(0)
	sl := sh.OpenStream("s", 0)
	outs := decideN(l, sh, sl, 30, 0.1, 0)
	var admitted, throttled, denied int
	for _, o := range outs {
		switch o.Decision {
		case Admitted:
			admitted++
		case Throttled:
			throttled++
		case Denied:
			denied++
		default:
			t.Fatalf("unexpected decision %v", o.Decision)
		}
	}
	if admitted != 10 {
		t.Fatalf("admitted %d, want the full grant's 10", admitted)
	}
	if throttled == 0 {
		t.Fatal("throttle never engaged")
	}
	if denied == 0 {
		t.Fatal("exhaustion never denied")
	}
	if float64(admitted)*0.1 > 1.0+dp.SpendTolerance(1.0) {
		t.Fatal("throttle overshot the grant")
	}
}

// TestRotateDecisionAndLazyRotation pins what a budget-epoch rotation does
// to an exhausted stream: the ledger never rotates on its own — under Deny
// the exhausted stream stays denied within its epoch — and the stream's
// first decision under the next epoch rotates it lazily, admitting again
// with a fresh spend.
func TestRotateDecisionAndLazyRotation(t *testing.T) {
	l := NewLedger(0.2, Deny, 1, 1)
	sh := l.Shard(0)
	sl := sh.OpenStream("s", 0)
	if o := l.Decide(sh, sl, 0, 0.2, 0); o.Decision != Admitted {
		t.Fatalf("first release: %v", o.Decision)
	}
	if o := l.Decide(sh, sl, 1, 0.2, 0); o.Decision != Denied {
		t.Fatalf("exhausted release: %v, want denied", o.Decision)
	}
	// The runtime's caller rotates the budget epoch.
	l.CountRotation()
	// Next boundary: the shard observes budget epoch 1; the stream rotates
	// lazily and the fresh grant admits again.
	o := l.Decide(sh, sl, 2, 0.2, 1)
	if o.Decision != Admitted {
		t.Fatalf("post-rotation release: %v, want admitted", o.Decision)
	}
	if sl.epoch.Load() != 1 {
		t.Fatalf("stream epoch = %d, want 1", sl.epoch.Load())
	}
	if sp := sl.spent.load(); math.Abs(sp-0.2) > 1e-12 {
		t.Fatalf("fresh-epoch spent = %v, want 0.2", sp)
	}
	snap := l.Snapshot(1)
	if snap.Rotations != 1 {
		t.Fatalf("rotations = %d", snap.Rotations)
	}
	if got := float64(snap.Retired); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("retired = %v, want the old epoch's 0.2", got)
	}
}

func TestComposedRingTracksWEventBound(t *testing.T) {
	const overlap = 4
	l := NewLedger(100, Deny, overlap, 1)
	sh := l.Shard(0)
	sl := sh.OpenStream("s", 0)
	const charge = 0.5
	for i := 0; i < 10; i++ {
		l.Decide(sh, sl, int64(i), charge, 0)
		want := charge * float64(min(i+1, overlap))
		if got := sl.composed.load(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("window %d: composed = %v, want %v", i, got, want)
		}
	}
	// A denied window slides a zero into the ring.
	l2 := NewLedger(2.0, Deny, overlap, 1)
	sh2 := l2.Shard(0)
	sl2 := sh2.OpenStream("s", 0)
	for i := 0; i < 4; i++ {
		l2.Decide(sh2, sl2, int64(i), 0.5, 0) // exhausts at window 3
	}
	if got := sl2.composed.load(); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("composed after exhaustion = %v", got)
	}
	for i := 4; i < 8; i++ {
		if o := l2.Decide(sh2, sl2, int64(i), 0.5, 0); o.Decision != Denied {
			t.Fatalf("window %d: %v", i, o.Decision)
		}
	}
	if got := sl2.composed.load(); got != 0 {
		t.Fatalf("composed after 4 denied windows = %v, want 0", got)
	}
}

// TestSkipSlidesZerosThroughRing: windows closed while no query is
// registered must advance the composed ring with zero charges, so the
// per-event loss reading does not stay stale across a queryless gap.
func TestSkipSlidesZerosThroughRing(t *testing.T) {
	const overlap = 4
	l := NewLedger(100, Deny, overlap, 1)
	sh := l.Shard(0)
	sl := sh.OpenStream("s", 0)
	for i := 0; i < overlap; i++ {
		l.Decide(sh, sl, int64(i), 0.5, 0)
	}
	if got := sl.composed.load(); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("composed = %v", got)
	}
	l.Skip(sl, 100) // a long queryless gap
	if got := sl.composed.load(); got != 0 {
		t.Fatalf("composed after queryless gap = %v, want 0", got)
	}
	l.Decide(sh, sl, int64(overlap+100), 0.5, 0)
	if got := sl.composed.load(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("composed after gap + one release = %v, want 0.5", got)
	}
	// The lifetime maximum still remembers the pre-gap bound.
	snap := l.Snapshot(0)
	if got := float64(snap.MaxComposed); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("MaxComposed = %v, want lifetime 2.0", got)
	}
}

func TestQueryAttributionAndChurn(t *testing.T) {
	l := NewLedger(100, Deny, 1, 1)
	sh := l.Shard(0)
	sl := sh.OpenStream("s", 0)
	sh.SetQueries([]string{"a", "b"})
	for i := 0; i < 3; i++ {
		l.Decide(sh, sl, int64(i), 0.5, 0)
		sh.ChargeQueries(0.5)
	}
	// Unregister b, register c: b's attribution must fold into retired.
	sh.SetQueries([]string{"a", "c"})
	l.Decide(sh, sl, 3, 0.5, 0)
	sh.ChargeQueries(0.5)
	snap := l.Snapshot(0)
	want := map[string]float64{"a": 2.0, "c": 0.5}
	if len(snap.PerQuery) != 2 {
		t.Fatalf("PerQuery = %v", snap.PerQuery)
	}
	for _, q := range snap.PerQuery {
		if math.Abs(float64(q.Eps)-want[q.Query]) > 1e-12 {
			t.Fatalf("query %q attributed %v, want %v", q.Query, q.Eps, want[q.Query])
		}
	}
	if len(snap.RetiredQueries) != 1 || snap.RetiredQueries[0].Query != "b" ||
		math.Abs(float64(snap.RetiredQueries[0].Eps)-1.5) > 1e-12 {
		t.Fatalf("RetiredQueries = %v", snap.RetiredQueries)
	}
	if math.Abs(float64(snap.Spent)-2.0) > 1e-12 {
		t.Fatalf("Spent = %v, want 2.0", snap.Spent)
	}
}

func TestSnapshotAggregatesShardsAndEviction(t *testing.T) {
	l := NewLedger(10, Deny, 2, 2)
	for i := 0; i < 2; i++ {
		sh := l.Shard(i)
		sh.SetCharge(1.0)
		sl := sh.OpenStream("s", 0)
		for w := 0; w < i+1; w++ {
			l.Decide(sh, sl, int64(w), 1.0, 0)
		}
	}
	snap := l.Snapshot(0)
	if snap.Streams != 2 || snap.Admitted != 3 {
		t.Fatalf("streams=%d admitted=%d", snap.Streams, snap.Admitted)
	}
	if math.Abs(float64(snap.Spent)-3.0) > 1e-12 {
		t.Fatalf("Spent = %v", snap.Spent)
	}
	if math.Abs(float64(snap.MaxStreamSpent)-2.0) > 1e-12 {
		t.Fatalf("MaxStreamSpent = %v", snap.MaxStreamSpent)
	}
	if math.Abs(float64(snap.MaxComposed)-2.0) > 1e-12 {
		t.Fatalf("MaxComposed = %v", snap.MaxComposed)
	}
	if snap.Charge != 1.0 {
		t.Fatalf("Charge = %v", snap.Charge)
	}
	// Evicting a stream archives its spend.
	l.Shard(1).EvictStream("s")
	snap = l.Snapshot(0)
	if snap.Streams != 1 {
		t.Fatalf("streams after evict = %d", snap.Streams)
	}
	if math.Abs(float64(snap.Retired)-2.0) > 1e-12 {
		t.Fatalf("Retired = %v", snap.Retired)
	}
	if math.Abs(float64(snap.Spent)-1.0) > 1e-12 {
		t.Fatalf("Spent after evict = %v", snap.Spent)
	}
}

func TestExhaustedCount(t *testing.T) {
	l := NewLedger(1.0, Deny, 1, 1)
	sh := l.Shard(0)
	sh.SetCharge(0.6)
	sl := sh.OpenStream("s", 0)
	l.Decide(sh, sl, 0, 0.6, 0)
	snap := l.Snapshot(0)
	if snap.Exhausted != 1 {
		t.Fatalf("Exhausted = %d: remaining 0.4 cannot cover charge 0.6", snap.Exhausted)
	}
}

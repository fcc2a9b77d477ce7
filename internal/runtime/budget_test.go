package runtime

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// budgetConfig is testConfig with accounting enabled: charge 1.0 per
// released window (UniformPPM eps 1), one query, tumbling windows of 10.
func budgetConfig(t *testing.T, grant dp.Epsilon, policy BudgetPolicy) Config {
	t.Helper()
	pt, err := core.NewPatternType("priv", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Shards:      1,
		WindowWidth: 10,
		Mechanism: func(int) (core.Mechanism, error) {
			return core.NewUniformPPM(1, pt)
		},
		Private:      []core.PatternType{pt},
		Targets:      []cep.Query{{Name: "has-a", Pattern: cep.E("a"), Window: 10}},
		Seed:         7,
		Budget:       grant,
		BudgetPolicy: policy,
	}
}

// serveWindows ingests `windows` tumbling windows for one stream and returns
// the answers delivered on the given subscription after Close.
func serveWindows(t *testing.T, rt *Runtime, sub *Subscription, key string, windows int) []Answer {
	t.Helper()
	var got []Answer
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			got = append(got, a)
		}
	}()
	for w := 0; w < windows; w++ {
		e := event.New("a", event.Timestamp(w*10+1)).WithSource(key)
		if err := rt.Ingest(e); err != nil {
			t.Error(err)
			break
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()
	return got
}

func TestBudgetDisabledByDefault(t *testing.T) {
	cfg := budgetConfig(t, 0, BudgetDeny)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	got := serveWindows(t, rt, sub, "s", 4)
	if len(got) != 4 {
		t.Fatalf("answers = %d, want 4", len(got))
	}
	for _, a := range got {
		if a.SpentEpsilon != 0 || a.RemainingEpsilon != 0 || a.Suppressed {
			t.Fatalf("budget fields set without accounting: %+v", a)
		}
	}
	if st := rt.Snapshot(); st.Budget != nil {
		t.Fatalf("Snapshot.Budget = %+v without accounting", st.Budget)
	}
}

func TestBudgetDenyStopsReleases(t *testing.T) {
	rt, err := New(budgetConfig(t, 3, BudgetDeny))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	got := serveWindows(t, rt, sub, "s", 10)
	if len(got) != 3 {
		t.Fatalf("released answers = %d, want grant/charge = 3", len(got))
	}
	for i, a := range got {
		if a.Suppressed {
			t.Fatalf("deny released a suppressed placeholder: %+v", a)
		}
		wantSpent := dp.Epsilon(i + 1)
		if math.Abs(float64(a.SpentEpsilon-wantSpent)) > 1e-12 {
			t.Fatalf("answer %d SpentEpsilon = %v, want %v", i, a.SpentEpsilon, wantSpent)
		}
		if math.Abs(float64(a.RemainingEpsilon-(3-wantSpent))) > 1e-12 {
			t.Fatalf("answer %d RemainingEpsilon = %v", i, a.RemainingEpsilon)
		}
	}
	st := rt.Snapshot()
	if st.Budget == nil {
		t.Fatal("Snapshot.Budget nil with accounting on")
	}
	b := st.Budget
	if b.Admitted != 3 || b.Denied != 7 || b.Suppressed != 0 {
		t.Fatalf("admitted/denied/suppressed = %d/%d/%d", b.Admitted, b.Denied, b.Suppressed)
	}
	if math.Abs(float64(b.Spent-3)) > 1e-12 || math.Abs(float64(b.MaxStreamSpent-3)) > 1e-12 {
		t.Fatalf("Spent = %v, MaxStreamSpent = %v", b.Spent, b.MaxStreamSpent)
	}
	if b.Exhausted != 1 {
		t.Fatalf("Exhausted = %d", b.Exhausted)
	}
	if len(b.PerQuery) != 1 || b.PerQuery[0].Query != "has-a" ||
		math.Abs(float64(b.PerQuery[0].Eps-3)) > 1e-12 {
		t.Fatalf("PerQuery = %+v", b.PerQuery)
	}
	if b.Charge != 1 || b.Grant != 3 || b.Policy != BudgetDeny {
		t.Fatalf("Charge/Grant/Policy = %v/%v/%v", b.Charge, b.Grant, b.Policy)
	}
}

func TestBudgetSuppressKeepsCadence(t *testing.T) {
	rt, err := New(budgetConfig(t, 2, BudgetSuppress))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	got := serveWindows(t, rt, sub, "s", 6)
	if len(got) != 6 {
		t.Fatalf("answers = %d, want the full cadence of 6", len(got))
	}
	for i, a := range got {
		if a.WindowIndex != i {
			t.Fatalf("answer %d WindowIndex = %d", i, a.WindowIndex)
		}
		if want := i >= 2; a.Suppressed != want {
			t.Fatalf("answer %d Suppressed = %t, want %t", i, a.Suppressed, want)
		}
		if a.Suppressed {
			if a.Detected {
				t.Fatalf("suppressed answer %d leaked a detection", i)
			}
			if math.Abs(float64(a.SpentEpsilon-2)) > 1e-12 {
				t.Fatalf("suppressed answer %d was charged: spent %v", i, a.SpentEpsilon)
			}
		}
	}
	b := rt.Snapshot().Budget
	if b.Admitted != 2 || b.Suppressed != 4 || b.Denied != 0 {
		t.Fatalf("admitted/suppressed/denied = %d/%d/%d", b.Admitted, b.Suppressed, b.Denied)
	}
}

func TestBudgetThrottleStretchesGrant(t *testing.T) {
	// Grant 4, charge 1: remaining hits the 25% low-water after the third
	// admitted window, after which odd window indices are throttled.
	rt, err := New(budgetConfig(t, 4, BudgetThrottle))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	got := serveWindows(t, rt, sub, "s", 12)
	var admitted, throttledOrSuppressed int
	for _, a := range got {
		if a.Suppressed {
			throttledOrSuppressed++
		} else {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("admitted = %d, want the full grant's 4", admitted)
	}
	if throttledOrSuppressed == 0 {
		t.Fatal("throttle never suppressed a window")
	}
	b := rt.Snapshot().Budget
	if b.Throttled == 0 {
		t.Fatalf("Throttled counter = 0 (budget %+v)", b)
	}
	if b.Denied == 0 {
		t.Fatal("exhaustion never denied")
	}
}

func TestRotateBudgetAPI(t *testing.T) {
	rt, err := New(budgetConfig(t, 2, BudgetSuppress))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	// Lockstep serving (every window answers under Suppress), so the
	// manual rotation lands exactly between window 3 and window 4.
	var got []Answer
	ingest := func(w int) {
		t.Helper()
		if err := rt.Ingest(event.New("a", event.Timestamp(w*10+1)).WithSource("s")); err != nil {
			t.Fatal(err)
		}
		if w >= 1 {
			got = append(got, <-sub.C())
		}
	}
	for w := 0; w < 4; w++ {
		ingest(w)
	}
	ep, err := rt.RotateBudget()
	if err != nil {
		t.Fatal(err)
	}
	if rt.BudgetEpoch() != ep {
		t.Fatalf("BudgetEpoch = %d, want %d", rt.BudgetEpoch(), ep)
	}
	for w := 4; w < 8; w++ {
		ingest(w)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for a := range sub.C() {
		got = append(got, a)
	}
	// Grant 2 per epoch. Windows 0-1 spend epoch 0's grant and window 2 is
	// suppressed. The rotation lands while window 3 is still open, so the
	// shard applies it at window 3's boundary: windows 3-4 spend the fresh
	// grant and the rest are suppressed again.
	var released []int
	for _, a := range got {
		if !a.Suppressed {
			released = append(released, a.WindowIndex)
		}
	}
	if want := []int{0, 1, 3, 4}; !equalInts(released, want) {
		t.Fatalf("released windows %v, want %v", released, want)
	}
	b := rt.Snapshot().Budget
	if b.Rotations != 1 {
		t.Fatalf("Rotations = %d", b.Rotations)
	}
	if b.Retired == 0 {
		t.Fatal("rotated epoch's spend was not archived")
	}
}

// TestNamespaceSpendFollowsRotation pins that the per-tenant spend view
// classifies streams exactly as the budget snapshot does: a stream that has
// not released since a rotation holds retired spend, so right after the
// rotation its tenant has spent nothing this epoch and is not exhausted.
func TestNamespaceSpendFollowsRotation(t *testing.T) {
	rt, err := New(budgetConfig(t, 3, BudgetDeny))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sub, err := rt.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	// The event of window w closes window w-1: wait for its answer, so the
	// ledger has charged it.
	for w := 0; w < 4; w++ {
		if err := rt.Ingest(event.New("a", event.Timestamp(w*10+1)).WithSource("tenant/s")); err != nil {
			t.Fatal(err)
		}
		if w >= 1 {
			<-sub.C()
		}
	}
	check := func(when string, spent dp.Epsilon, exhausted int) {
		t.Helper()
		var sum dp.Epsilon
		var ex int
		for _, ns := range rt.SpendByNamespace('/') {
			sum += ns.Spent
			ex += ns.Exhausted
		}
		b := rt.Snapshot().Budget
		if sum != b.Spent || ex != b.Exhausted || sum != spent || ex != exhausted {
			t.Fatalf("%s: namespaces spent %v exhausted %d, snapshot spent %v exhausted %d, want %v and %d",
				when, sum, ex, b.Spent, b.Exhausted, spent, exhausted)
		}
	}
	check("before rotation", 3, 1)
	if _, err := rt.RotateBudget(); err != nil {
		t.Fatal(err)
	}
	check("after rotation", 0, 0)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBudgetSlidingComposition: under sliding overlap the ledger's w-event
// composed bound tracks overlap x charge, and per-answer stamps keep
// monotone spend.
func TestBudgetSlidingComposition(t *testing.T) {
	cfg := budgetConfig(t, 100, BudgetDeny)
	cfg.Slide = 5 // width 10: overlap 2
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	got := serveWindows(t, rt, sub, "s", 8)
	if len(got) == 0 {
		t.Fatal("no answers")
	}
	last := dp.Epsilon(-1)
	for _, a := range got {
		if a.SpentEpsilon < last {
			t.Fatalf("SpentEpsilon regressed: %v after %v", a.SpentEpsilon, last)
		}
		last = a.SpentEpsilon
	}
	b := rt.Snapshot().Budget
	if b.Overlap != 2 {
		t.Fatalf("Overlap = %d, want 2", b.Overlap)
	}
	if math.Abs(float64(b.MaxComposed-2)) > 1e-12 {
		t.Fatalf("MaxComposed = %v, want overlap x charge = 2", b.MaxComposed)
	}
	if float64(b.MaxComposed) > float64(b.Overlap)*float64(b.Charge)+1e-12 {
		t.Fatalf("w-event bound violated: %v > %d x %v", b.MaxComposed, b.Overlap, b.Charge)
	}
}

// TestBudgetEvictionArchives: an evicted stream's spend moves to Retired and
// a returning stream starts a fresh feed ledger.
func TestBudgetEvictionArchives(t *testing.T) {
	cfg := budgetConfig(t, 10, BudgetDeny)
	cfg.EvictAfter = 4
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Four windows for "old", then enough traffic on "new" to trip the
	// eviction sweep for "old".
	for w := 0; w < 4; w++ {
		if err := rt.Ingest(event.New("a", event.Timestamp(w*10+1)).WithSource("old")); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 12; w++ {
		if err := rt.Ingest(event.New("a", event.Timestamp(w*10+1)).WithSource("new")); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Snapshot()
	if st.Totals().StreamsEvicted == 0 {
		t.Skip("eviction did not trigger at this cadence")
	}
	if st.Budget.Retired == 0 {
		t.Fatal("evicted stream's spend was not archived")
	}
}

// TestBudgetChurnSingleCharge: registering more queries must not multiply
// the per-window charge — one release serves every query.
func TestBudgetChurnSingleCharge(t *testing.T) {
	rt, err := New(budgetConfig(t, 100, BudgetDeny))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	var got []Answer
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			got = append(got, a)
		}
	}()
	for w := 0; w < 3; w++ {
		if err := rt.Ingest(event.New("a", event.Timestamp(w*10+1)).WithSource("s")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.RegisterQuery(cep.Query{Name: "probe", Pattern: cep.E("b"), Window: 10}); err != nil {
		t.Fatal(err)
	}
	for w := 3; w < 6; w++ {
		if err := rt.Ingest(event.New("a", event.Timestamp(w*10+1)).WithSource("s")); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()
	windows := map[int]bool{}
	for _, a := range got {
		windows[a.WindowIndex] = true
	}
	b := rt.Snapshot().Budget
	want := float64(len(windows))
	if math.Abs(float64(b.Spent)-want) > 1e-12 {
		t.Fatalf("Spent = %v, want one charge per released window = %v (answers: %d)",
			b.Spent, want, len(got))
	}
	// Attribution covers both queries for the windows they were live.
	var probe, base dp.Epsilon
	for _, q := range b.PerQuery {
		switch q.Query {
		case "probe":
			probe = q.Eps
		case "has-a":
			base = q.Eps
		}
	}
	if base < probe || probe == 0 {
		t.Fatalf("attribution has-a=%v probe=%v", base, probe)
	}
}

func TestBudgetConfigValidation(t *testing.T) {
	cfg := budgetConfig(t, dp.Epsilon(math.Inf(1)), BudgetDeny)
	if _, err := New(cfg); err == nil {
		t.Fatal("infinite Budget accepted")
	}
	cfg = budgetConfig(t, 1, BudgetPolicy(99))
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown BudgetPolicy accepted")
	}
}

// TestBudgetMultiShard: budget accounting is per stream regardless of shard
// placement; totals aggregate across shard sub-ledgers.
func TestBudgetMultiShard(t *testing.T) {
	cfg := budgetConfig(t, 2, BudgetDeny)
	cfg.Shards = 4
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	perStream := map[string]int{}
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			mu.Lock()
			perStream[a.Stream]++
			mu.Unlock()
		}
	}()
	var producers sync.WaitGroup
	const streams, windows = 6, 5
	for i := 0; i < streams; i++ {
		producers.Add(1)
		go func(i int) {
			defer producers.Done()
			key := fmt.Sprintf("s-%d", i)
			for w := 0; w < windows; w++ {
				if err := rt.Ingest(event.New("a", event.Timestamp(w*10+1)).WithSource(key)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	producers.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()
	for key, n := range perStream {
		if n != 2 {
			t.Fatalf("stream %s released %d windows, want grant/charge = 2", key, n)
		}
	}
	b := rt.Snapshot().Budget
	if math.Abs(float64(b.Spent)-float64(streams*2)) > 1e-9 {
		t.Fatalf("Spent = %v, want %d", b.Spent, streams*2)
	}
	if math.Abs(float64(b.MaxStreamSpent)-2) > 1e-12 {
		t.Fatalf("MaxStreamSpent = %v, want per-stream grant 2", b.MaxStreamSpent)
	}
}

package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/durable"
	"patterndp/internal/event"
)

// spendTol is the float comparison slack for accumulated spends.
func spendTol(x float64) float64 { return math.Abs(x)*1e-9 + 1e-9 }

// crashFS is a process-crash file system: it passes every call to durable.OS
// until the left-th write, which it may tear to its first tear bytes, and
// fails every call after that one, as if the process had died there. The
// files stay exactly as written. left <= 0 never crashes on its own; kill
// crashes at once.
type crashFS struct {
	mu         sync.Mutex
	left, tear int
	dead       bool
}

var errProcessCrash = errors.New("process crash")

// onCrashFS returns cfg with its WAL writing through c.
func onCrashFS(cfg Config, c *crashFS) Config {
	d := *cfg.Durability
	d.fs = c
	cfg.Durability = &d
	return cfg
}

func (c *crashFS) kill() {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
}

func (c *crashFS) crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

func (c *crashFS) OpenFile(name string, flag int) (durable.File, error) {
	if c.crashed() {
		return nil, errProcessCrash
	}
	f, err := durable.OS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &crashFile{f, c}, nil
}

func (c *crashFS) Rename(oldpath, newpath string) error {
	if c.crashed() {
		return errProcessCrash
	}
	return durable.OS.Rename(oldpath, newpath)
}

func (c *crashFS) Remove(name string) error {
	if c.crashed() {
		return errProcessCrash
	}
	return durable.OS.Remove(name)
}

func (c *crashFS) SyncDir(dir string) error {
	if c.crashed() {
		return errProcessCrash
	}
	return durable.OS.SyncDir(dir)
}

type crashFile struct {
	durable.File
	c *crashFS
}

func (f *crashFile) Write(p []byte) (int, error) {
	c := f.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, errProcessCrash
	}
	if c.left--; c.left != 0 {
		return f.File.Write(p)
	}
	c.dead = true
	if c.tear > 0 && c.tear < len(p) {
		n, _ := f.File.Write(p[:c.tear])
		return n, errProcessCrash
	}
	return f.File.Write(p)
}

func (f *crashFile) Sync() error {
	if f.c.crashed() {
		return errProcessCrash
	}
	return f.File.Sync()
}

func (f *crashFile) Close() error {
	err := f.File.Close()
	if f.c.crashed() {
		return errProcessCrash
	}
	return err
}

// durableConfig is testConfig plus a budget ledger and a WAL directory.
func durableConfig(t *testing.T, dir string, shards int, budget dp.Epsilon) Config {
	t.Helper()
	cfg := testConfig(t, shards)
	cfg.Budget = budget
	cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncOff}
	return cfg
}

// TestRestartResumesServing is the graceful kill-and-restart e2e: a runtime
// serves and closes (writing its final checkpoint), a second runtime recovers
// from the same directory, and serving resumes from the restored state —
// window indices continue where they left off and the restored spend carries
// over instead of being re-granted.
func TestRestartResumesServing(t *testing.T) {
	dir := t.TempDir()
	const charge, windows = 50, 10
	cfg := durableConfig(t, dir, 2, 100*charge)

	rt1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt1.Recovery() != nil {
		t.Fatal("fresh directory reported a recovery")
	}
	for _, e := range streamEvents("s1", windows) {
		if err := rt1.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt1.Close(); err != nil {
		t.Fatal(err)
	}
	snap1 := rt1.Snapshot()
	spent1 := float64(snap1.Budget.Spent) + float64(snap1.Budget.Retired)
	if spent1 != charge*windows {
		t.Fatalf("pre-restart spend = %v, want %v", spent1, charge*windows)
	}

	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := rt2.Recovery()
	if rec == nil {
		t.Fatal("no recovery from a non-empty directory")
	}
	if rec.CheckpointID == 0 {
		t.Error("graceful close left no checkpoint")
	}
	if rec.Streams != 1 {
		t.Errorf("restored streams = %d, want 1", rec.Streams)
	}
	if got := float64(rec.RestoredSpend) + float64(rec.ReplayedSpend); math.Abs(got-spent1) > spendTol(spent1) {
		t.Errorf("restored+replayed spend = %v, want %v", got, spent1)
	}
	snap2 := rt2.Snapshot()
	if got := float64(snap2.Budget.Spent) + float64(snap2.Budget.Retired); math.Abs(got-spent1) > spendTol(spent1) {
		t.Errorf("recovered ledger spend = %v, want %v", got, spent1)
	}

	// Serving resumes: the restored stream's window indices continue.
	sub, err := rt2.Subscribe("has-a")
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
	for w := windows; w < windows+4; w++ {
		e := event.New("a", event.Timestamp(w*10+1)).WithSource("s1")
		if err := rt2.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()
	if len(got) != 4 {
		t.Fatalf("post-restart answers = %d, want 4", len(got))
	}
	for i, a := range got {
		if a.WindowIndex != windows+i {
			t.Fatalf("answer %d window index = %d, want %d (continuing)", i, a.WindowIndex, windows+i)
		}
	}
	snap3 := rt2.Snapshot()
	want := spent1 + 4*charge
	if got := float64(snap3.Budget.Spent) + float64(snap3.Budget.Retired); math.Abs(got-want) > spendTol(want) {
		t.Errorf("post-restart spend = %v, want %v (restored + 4 windows)", got, want)
	}
}

// TestRestartResumesBudgetEpoch checks that a rotated budget epoch survives
// the restart: the recovered runtime resumes from the rotated epoch instead
// of re-granting under epoch 0.
func TestRestartResumesBudgetEpoch(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir, 1, 1000)
	rt1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range streamEvents("s1", 3) {
		if err := rt1.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	ep, err := rt1.RotateBudget()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt1.RegisterQuery(cep.Query{Name: "extra", Pattern: cep.E("b"), Window: 10}); err != nil {
		t.Fatal(err)
	}
	if err := rt1.Close(); err != nil {
		t.Fatal(err)
	}

	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if got := rt2.BudgetEpoch(); got < ep {
		t.Errorf("recovered budget epoch = %d, want >= %d", got, ep)
	}
	if got := rt2.Epoch(); got < ep {
		t.Errorf("recovered control epoch = %d, want >= %d", got, ep)
	}
	if rec := rt2.Recovery(); rec.BudgetEpoch < ep {
		t.Errorf("summary budget epoch = %d, want >= %d", rec.BudgetEpoch, ep)
	}
}

// TestControlRecordBeforePublish pins the control plane's write-ahead order:
// a control change whose WAL record cannot be written fails and publishes
// nothing, so no shard serves an epoch that recovery could lose. With the
// process crashed before the next write, RotateBudget and RegisterQuery
// return errors and leave the live epochs unchanged, and a runtime reopened
// on the directory recovers exactly the budget epoch the live one last
// reported.
func TestControlRecordBeforePublish(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir, 1, 1000)
	crash := &crashFS{}
	rt1, err := New(onCrashFS(cfg, crash))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt1.RotateBudget(); err != nil {
		t.Fatal(err)
	}
	budget, ctl := rt1.BudgetEpoch(), rt1.Epoch()
	crash.kill()
	if ep, err := rt1.RotateBudget(); err == nil {
		t.Fatalf("RotateBudget with its record lost = (%d, nil), want an error", ep)
	}
	if _, err := rt1.RegisterQuery(cep.Query{Name: "extra", Pattern: cep.E("b"), Window: 10}); err == nil {
		t.Fatal("RegisterQuery with its record lost succeeded")
	}
	if got := rt1.BudgetEpoch(); got != budget {
		t.Errorf("budget epoch after a failed rotation = %d, want %d", got, budget)
	}
	if got := rt1.Epoch(); got != ctl {
		t.Errorf("control epoch after failed changes = %d, want %d", got, ctl)
	}
	if rt1.HasQuery("extra") {
		t.Error("a query whose record was lost is registered")
	}
	rt1.Close() //nolint:errcheck // the process crashed; recovery is what is checked

	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if got := rt2.BudgetEpoch(); got != budget {
		t.Errorf("recovered budget epoch = %d, want the %d the live runtime reported", got, budget)
	}
	if got := rt2.Epoch(); got < ctl {
		t.Errorf("recovered control epoch = %d, want >= %d", got, ctl)
	}
}

// TestCheckpointOnDemand checks Checkpoint while serving and recovery from
// checkpoint + WAL tail (records past the checkpoint replayed on top).
func TestCheckpointOnDemand(t *testing.T) {
	dir := t.TempDir()
	const charge = 50
	cfg := durableConfig(t, dir, 2, 100*charge)
	rt1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range streamEvents("s1", 5) {
		if err := rt1.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt1.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, e := range streamEvents("s2", 5) {
		if err := rt1.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt1.Close(); err != nil {
		t.Fatal(err)
	}

	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	rec := rt2.Recovery()
	if rec == nil || rec.CheckpointID == 0 {
		t.Fatalf("recovery = %+v, want a checkpoint", rec)
	}
	if rec.Streams != 2 {
		t.Errorf("restored streams = %d, want both (checkpointed + replayed)", rec.Streams)
	}
	snap := rt2.Snapshot()
	// s1 flushed 5 windows before the checkpoint... plus its final flush
	// window and s2's on close; the ledger must hold every charged window.
	want := float64(rt1.Snapshot().Budget.Spent) + float64(rt1.Snapshot().Budget.Retired)
	if got := float64(snap.Budget.Spent) + float64(snap.Budget.Retired); got+spendTol(want) < want {
		t.Errorf("recovered spend %v under-counts pre-restart spend %v", got, want)
	}
}

// TestErrDurabilityDisabled checks Checkpoint without Config.Durability.
func TestErrDurabilityDisabled(t *testing.T) {
	rt, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.Checkpoint(context.Background()); err != ErrDurabilityDisabled {
		t.Fatalf("Checkpoint = %v, want ErrDurabilityDisabled", err)
	}
}

// TestCrashRecoveryNeverUnderCounts is the crash property test behind the
// durability subsystem's one-sided invariant: across randomized workloads
// and process crashes after a random number of WAL and checkpoint writes —
// some of them tearing that write, every third trial checkpointing as it
// serves — the spend recovered on restart must be at least the spend of
// every answer that was actually published. Over-counting is allowed (a
// charge whose answer never left); under-counting never is. Runs under
// -race in CI.
func TestCrashRecoveryNeverUnderCounts(t *testing.T) {
	const trials = 18
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%02d", trial), func(t *testing.T) {
			runCrashTrial(t, rand.New(rand.NewSource(int64(7000+trial))), trial%3 == 2)
		})
	}
}

func runCrashTrial(t *testing.T, rng *rand.Rand, checkpoints bool) {
	t.Helper()
	pt, err := core.NewPatternType("priv", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	charge := dp.Epsilon(0.5 + rng.Float64())
	grant := charge * dp.Epsilon(2+rng.Intn(10))
	dir := t.TempDir()
	cfg := Config{
		Shards:      1 + rng.Intn(3),
		WindowWidth: 10,
		Mechanism: func(int) (core.Mechanism, error) {
			return core.NewUniformPPM(charge, pt)
		},
		Private:      []core.PatternType{pt},
		Targets:      []cep.Query{{Name: "base", Pattern: cep.E("a"), Window: 10}},
		Seed:         int64(rng.Int()),
		Budget:       grant,
		BudgetPolicy: []BudgetPolicy{BudgetDeny, BudgetSuppress, BudgetThrottle}[rng.Intn(3)],
		Durability:   &DurabilityConfig{Dir: dir, Fsync: FsyncOff},
	}
	cut := 1 + rng.Intn(30)
	crash := &crashFS{left: cut}
	if rng.Intn(2) == 0 {
		crash.tear = 1 + rng.Intn(40)
	}
	rt, err := New(onCrashFS(cfg, crash))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("base")
	if err != nil {
		t.Fatal(err)
	}
	// Track published admitted releases: any answer the subscriber holds
	// was published strictly after its WAL record committed, so its charge
	// must be in the recovered ledger.
	type winKey struct {
		stream string
		idx    int
	}
	published := make(map[winKey]bool)
	var mu sync.Mutex
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			if a.Suppressed {
				continue
			}
			mu.Lock()
			published[winKey{a.Stream, a.WindowIndex}] = true
			mu.Unlock()
		}
	}()

	streams := 1 + rng.Intn(4)
	clocks := make([]event.Timestamp, streams)
	events := 100 + rng.Intn(200)
	ckptEvery := 10 + rng.Intn(30)
	for i := 0; i < events; i++ {
		s := rng.Intn(streams)
		clocks[s] += event.Timestamp(1 + rng.Intn(8))
		typ := event.Type("a")
		if rng.Intn(4) == 0 {
			typ = event.Type("b")
		}
		e := event.New(typ, clocks[s]).WithSource(fmt.Sprintf("stream-%d", s))
		if err := rt.Ingest(e); err != nil {
			break // the crash fired and the shard failed
		}
		if checkpoints && i%ckptEvery == ckptEvery-1 {
			rt.Checkpoint(context.Background()) //nolint:errcheck // fails once crashed
		}
	}
	rt.Close() //nolint:errcheck // a crashed run reports the crash
	consumer.Wait()

	crashed := crash.crashed()
	mu.Lock()
	publishedSpend := float64(len(published)) * float64(charge)
	mu.Unlock()

	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := rt2.Snapshot()
	recovered := float64(snap.Budget.Spent) + float64(snap.Budget.Retired)
	if recovered+spendTol(publishedSpend) < publishedSpend {
		t.Fatalf("crash after write %d torn at %d, checkpoints=%t (fired=%t): recovered spend %v under-counts published spend %v (%d admitted windows x %v)",
			cut, crash.tear, checkpoints, crashed, recovered, publishedSpend, len(published), charge)
	}
	// And the recovered runtime still serves.
	e := event.New("a", clocks[0]+100).WithSource("stream-0")
	if err := rt2.Ingest(e); err != nil {
		t.Fatal(err)
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointLoop checks the background CheckpointEvery cadence writes
// checkpoints without stalling serving.
func TestCheckpointLoop(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir, 2, 5000)
	cfg.Durability.CheckpointEvery = time.Millisecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range streamEvents("s1", 20) {
		if err := rt.Ingest(e); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	rec := rt2.Recovery()
	if rec == nil || rec.CheckpointID < 2 {
		t.Fatalf("recovery = %+v, want several checkpoints written by the loop", rec)
	}
}

// TestDurabilityValidation checks the Config.Durability validation rules.
func TestDurabilityValidation(t *testing.T) {
	base := testConfig(t, 1)
	for name, mutate := range map[string]func(*Config){
		"empty dir":     func(c *Config) { c.Durability = &DurabilityConfig{} },
		"negative ckpt": func(c *Config) { c.Durability = &DurabilityConfig{Dir: "x", CheckpointEvery: -1} },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid durability config", name)
		}
	}
}

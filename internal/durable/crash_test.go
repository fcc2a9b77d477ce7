package durable

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The crash checker enumerates the on-disk states a crash may leave, after
// ALICE (Pillai et al., "All File Systems Are Not Created Equal", OSDI 2014).
// recFS wraps OS and logs every mutating call of one seeded scenario. A cut
// after any prefix of that log is the run in which every later call failed:
// nothing after the cut reaches the disk. For each cut, crashStates rebuilds
// every state the file system's rules allow — a file's data is durable only
// once an fsync of it succeeded, a name only once its directory was fsynced —
// and the checker runs the real Open on each in a fresh directory.

type opKind int

const (
	opCreate  opKind = iota // name linked to a new, empty inode
	opWrite                 // data written to ino at off
	opSync                  // fsync of ino (failed: it returned an error)
	opRename                // from renamed over name
	opRemove                // name unlinked
	opSyncDir               // the directory fsynced
)

type fsOp struct {
	kind   opKind
	ino    int
	name   string
	from   string
	off    int
	data   []byte
	failed bool
}

// recFS is a recording FS over one directory. failSyncs, when set, fails
// about one fsync of a WAL segment in three, the way a transient I/O error
// would.
type recFS struct {
	dir       string
	failSyncs *rand.Rand

	mu     sync.Mutex
	ops    []fsOp
	names  map[string]int // live name -> inode
	inodes int
}

func newRecFS(dir string) *recFS {
	return &recFS{dir: dir, names: map[string]int{}}
}

// mark returns the number of calls logged so far: a cut at or past it
// includes every call made before.
func (r *recFS) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

func (r *recFS) base(name string) (string, error) {
	if filepath.Dir(name) != r.dir {
		return "", fmt.Errorf("recFS: %s outside %s", name, r.dir)
	}
	return filepath.Base(name), nil
}

func (r *recFS) OpenFile(name string, flag int) (File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base, err := r.base(name)
	if err != nil {
		return nil, err
	}
	if _, ok := r.names[base]; ok {
		return nil, fmt.Errorf("recFS: rewriting %s in place is not modeled", base)
	}
	f, err := OS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	ino := r.inodes
	r.inodes++
	r.names[base] = ino
	r.ops = append(r.ops, fsOp{kind: opCreate, ino: ino, name: base})
	return &recFile{r: r, f: f, ino: ino, segment: strings.HasPrefix(base, "wal-")}, nil
}

func (r *recFS) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	from, err := r.base(oldpath)
	if err != nil {
		return err
	}
	to, err := r.base(newpath)
	if err != nil {
		return err
	}
	if err := OS.Rename(oldpath, newpath); err != nil {
		return err
	}
	ino := r.names[from]
	delete(r.names, from)
	r.names[to] = ino
	r.ops = append(r.ops, fsOp{kind: opRename, ino: ino, from: from, name: to})
	return nil
}

func (r *recFS) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	base, err := r.base(name)
	if err != nil {
		return err
	}
	if err := OS.Remove(name); err != nil {
		return err
	}
	r.ops = append(r.ops, fsOp{kind: opRemove, ino: r.names[base], name: base})
	delete(r.names, base)
	return nil
}

func (r *recFS) SyncDir(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if dir != r.dir {
		return fmt.Errorf("recFS: sync of %s outside %s", dir, r.dir)
	}
	r.ops = append(r.ops, fsOp{kind: opSyncDir})
	return nil
}

type recFile struct {
	r       *recFS
	f       File
	ino     int
	off     int
	segment bool
}

func (f *recFile) Write(p []byte) (int, error) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	n, err := f.f.Write(p)
	f.r.ops = append(f.r.ops, fsOp{kind: opWrite, ino: f.ino, off: f.off, data: append([]byte(nil), p[:n]...)})
	f.off += n
	return n, err
}

// Sync only logs: the states are rebuilt from the log, so the real file
// needs no fsync.
func (f *recFile) Sync() error {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	fail := f.segment && f.r.failSyncs != nil && f.r.failSyncs.Intn(3) == 0
	f.r.ops = append(f.r.ops, fsOp{kind: opSync, ino: f.ino, failed: fail})
	if fail {
		return errInjectedSync
	}
	return nil
}

func (f *recFile) Close() error { return f.f.Close() }

var errInjectedSync = errors.New("injected fsync failure")

// crashState is one state a crash may leave: the directory's files by name.
// strict states follow the file system's rules with a trusted fsync, and
// recovery must keep every promise in them. The others drop what a failed
// fsync may have dropped (Linux discards the dirty pages of a failed
// writeback and a later fsync succeeds); there recovery may fail, but loudly.
type crashState struct {
	kind   string
	files  map[string][]byte
	strict bool
}

// crashStates returns the states a crash after ops may leave:
//   - process: everything written is kept;
//   - dropped: unsynced data dropped, every name kept;
//   - power: unsynced data dropped and unsynced names lost;
//   - torn@n: the last write, if unsynced, cut to its first n bytes;
//   - lost#i: the unsynced create, rename or remove ops[i] lost on its own;
//   - failed-sync: after a failed fsync, the writes it covered are lost even
//     if a later fsync succeeds.
func crashStates(ops []fsOp) []crashState {
	persisted := make([]bool, len(ops)) // a successful fsync of its inode followed
	gated := make([]bool, len(ops))     // the first fsync of its inode after it succeeded
	unsynced := map[int][]int{}         // inode -> writes no successful fsync covers yet
	undecided := map[int][]int{}        // inode -> writes no fsync followed yet
	lastWrite, syncedDir, anyFailed := -1, 0, false
	for i, op := range ops {
		switch op.kind {
		case opWrite:
			unsynced[op.ino] = append(unsynced[op.ino], i)
			undecided[op.ino] = append(undecided[op.ino], i)
			lastWrite = i
		case opSync:
			for _, w := range undecided[op.ino] {
				gated[w] = !op.failed
			}
			undecided[op.ino] = nil
			if op.failed {
				anyFailed = true
				continue
			}
			for _, w := range unsynced[op.ino] {
				persisted[w] = true
			}
			unsynced[op.ino] = nil
		case opSyncDir:
			syncedDir = i
		}
	}
	all := func(int) bool { return true }
	build := func(keepName func(int) bool, data func(int) []byte) map[string][]byte {
		names := map[string]int{}
		content := map[int][]byte{}
		for i, op := range ops {
			switch op.kind {
			case opCreate:
				if keepName(i) {
					names[op.name] = op.ino
				}
			case opRename:
				if keepName(i) {
					if names[op.from] == op.ino {
						delete(names, op.from)
					}
					names[op.name] = op.ino
				}
			case opRemove:
				if ino, ok := names[op.name]; ok && ino == op.ino && keepName(i) {
					delete(names, op.name)
				}
			case opWrite:
				if d := data(i); d != nil {
					buf := content[op.ino]
					if end := op.off + len(d); end > len(buf) {
						buf = append(buf, make([]byte, end-len(buf))...)
					}
					copy(buf[op.off:], d)
					content[op.ino] = buf
				}
			}
		}
		files := make(map[string][]byte, len(names))
		for name, ino := range names {
			files[name] = content[ino]
		}
		return files
	}
	written := func(i int) []byte { return ops[i].data }
	keep := func(ok []bool) func(int) []byte {
		return func(i int) []byte {
			if ok[i] {
				return ops[i].data
			}
			return nil
		}
	}
	states := []crashState{
		{"process", build(all, written), true},
		{"dropped", build(all, keep(persisted)), true},
		{"power", build(func(i int) bool { return i < syncedDir }, keep(persisted)), true},
	}
	if lastWrite >= 0 && !persisted[lastWrite] {
		n := len(ops[lastWrite].data)
		for _, cut := range []int{1, n / 2, n - 1} {
			if cut <= 0 || cut >= n {
				continue
			}
			torn := func(i int) []byte {
				if i == lastWrite {
					return ops[i].data[:cut]
				}
				return ops[i].data
			}
			states = append(states, crashState{fmt.Sprintf("torn@%d", cut), build(all, torn), true})
		}
	}
	for j := syncedDir; j < len(ops); j++ {
		if k := ops[j].kind; k == opCreate || k == opRename || k == opRemove {
			states = append(states, crashState{fmt.Sprintf("lost#%d", j), build(func(i int) bool { return i != j }, written), true})
		}
	}
	if anyFailed {
		states = append(states, crashState{"failed-sync", build(all, keep(gated)), false})
	}
	return states
}

// stateKey identifies a state's contents, so equal states are checked once.
func stateKey(files map[string][]byte) string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s\x00%d\x00", n, len(files[n]))
		h.Write(files[n])
	}
	return string(h.Sum(nil))
}

type recKey struct {
	shard int
	lsn   uint64
}

// crashHistory is what the scenario was told, indexed by the log position at
// which each call returned.
type crashHistory struct {
	records map[recKey]Record // every record written, by appender and LSN
	commits []crashCommit
	synced  []int // positions at which SyncAll, WriteCheckpoint or Close returned nil
	spills  []int // position at which the i-th WriteSessions returned nil
}

type crashCommit struct {
	keys []recKey
	at   int
}

// runCrashScenario drives a seeded mix of the durable writes through fsys:
// window commits on two shards, budget rotations, checkpoints, explicit
// syncs and session spills, with segments small enough to rotate every few
// commits.
func runCrashScenario(t *testing.T, fsys *recFS, policy FsyncPolicy, seed int64) *crashHistory {
	t.Helper()
	l, err := Open(fsys.dir, Options{Shards: 2, Fsync: policy, FS: fsys, segmentBytes: 120})
	if err != nil {
		t.Fatal(err)
	}
	h := &crashHistory{records: map[recKey]Record{}}
	rng := rand.New(rand.NewSource(seed))
	var idx [2]int64
	var budgetEpoch, ctlEpoch uint64
	commit := func(a *Appender, staged []Record, do func() error) {
		from := a.LSN()
		err := do()
		at := fsys.mark()
		var keys []recKey
		for i := range a.LSN() - from {
			k := recKey{a.shard, from + 1 + i}
			h.records[k] = staged[i]
			keys = append(keys, k)
		}
		if err == nil {
			h.commits = append(h.commits, crashCommit{keys, at})
		}
	}
	synced := func(err error) {
		if err == nil {
			h.synced = append(h.synced, fsys.mark())
		}
	}
	for step := 0; step < 48; step++ {
		switch p := rng.Intn(20); {
		case p < 11:
			s := rng.Intn(2)
			a := l.Shard(s)
			var staged []Record
			for n := 1 + rng.Intn(3); n > 0; n-- {
				r := Record{Kind: KindWindow, Stream: fmt.Sprintf("s%d", s), WindowIdx: idx[s],
					WindowStart: 10 * idx[s], Decision: DecisionAdmitted, Charge: 0.25 * float64(1+rng.Intn(4)), BudgetEpoch: budgetEpoch}
				idx[s]++
				a.StageWindow(r.Stream, r.WindowIdx, r.WindowStart, r.Decision, r.Charge, r.BudgetEpoch)
				staged = append(staged, r)
			}
			commit(a, staged, a.Commit)
		case p < 13:
			budgetEpoch++
			ctlEpoch++
			r := Record{Kind: KindRotation, BudgetEpoch: budgetEpoch, CtlEpoch: ctlEpoch}
			commit(l.Control(), []Record{r}, func() error { return l.Control().AppendRotation(r.BudgetEpoch, r.CtlEpoch) })
		case p < 15:
			synced(l.SyncAll())
		case p < 17:
			ck := &Checkpoint{BudgetEpoch: budgetEpoch, CtlEpoch: ctlEpoch, ControlLSN: l.Control().LSN(),
				Shards: []ShardCheckpoint{{Shard: 0, WalLSN: l.Shard(0).LSN()}, {Shard: 1, WalLSN: l.Shard(1).LSN()}}}
			synced(l.WriteCheckpoint(ck))
		default:
			sp := &SessionSpill{Sessions: []SessionRecord{{Token: fmt.Sprint(len(h.spills))}}}
			if err := WriteSessions(fsys, fsys.dir, sp); err == nil {
				h.spills = append(h.spills, fsys.mark())
			} else {
				h.spills = append(h.spills, -1)
			}
		}
	}
	synced(l.Close())
	return h
}

// checkCrashState opens one crash state and checks it against what the
// scenario was promised by the cut: every policy recovers a contiguous LSN
// run from the checkpoint or fails; in strict states Open succeeds, every
// appender takes a new record, every commit the policy promised is
// recovered, and the newest promised session spill (or a later one) reads
// back.
func checkCrashState(dir string, policy FsyncPolicy, h *crashHistory, cut int, st crashState) error {
	l, err := Open(dir, Options{Shards: 2, Fsync: FsyncOff})
	if err != nil {
		if st.strict {
			return fmt.Errorf("Open: %w", err)
		}
		return nil
	}
	defer l.Close()
	consumed := map[int]uint64{}
	var tail []Record
	if rec := l.Recovery(); rec != nil {
		if ck := rec.Checkpoint; ck != nil {
			consumed[ControlShard] = ck.ControlLSN
			for _, sc := range ck.Shards {
				consumed[sc.Shard] = sc.WalLSN
			}
		}
		tail = append(append(tail, rec.ControlTail...), rec.Tail...)
	}
	recovered := map[recKey]bool{}
	next := map[int]uint64{}
	for _, r := range tail {
		want := next[r.Shard]
		if want == 0 {
			want = consumed[r.Shard] + 1
		}
		if r.LSN != want {
			return fmt.Errorf("recovered appender %d LSN %d, want %d: not a contiguous run", r.Shard, r.LSN, want)
		}
		next[r.Shard] = want + 1
		k := recKey{r.Shard, r.LSN}
		exp := h.records[k]
		exp.Shard, exp.LSN = r.Shard, r.LSN
		if r != exp {
			return fmt.Errorf("recovered %+v, written %+v", r, exp)
		}
		recovered[k] = true
	}
	if !st.strict {
		return nil
	}
	// The recovered log takes new records on every appender: the segment
	// each one's next commit creates is not on disk yet.
	for _, a := range []*Appender{l.Shard(0), l.Shard(1), l.Control()} {
		next := segmentName(a.shard, a.LSN()+1)
		if _, err := os.Stat(filepath.Join(dir, next)); err == nil {
			return fmt.Errorf("the next commit's segment %s already exists", next)
		}
	}
	lastSync := -1
	for _, at := range h.synced {
		if at <= cut {
			lastSync = at
		}
	}
	for _, c := range h.commits {
		if c.at > cut || (policy != FsyncAlways && c.at > lastSync) {
			continue // not promised by the cut
		}
		for _, k := range c.keys {
			if k.lsn > consumed[k.shard] && !recovered[k] {
				return fmt.Errorf("committed record appender %d LSN %d (charge %v) lost", k.shard, k.lsn, h.records[k].Charge)
			}
		}
	}
	sp, err := ReadSessions(dir)
	if err != nil {
		return err
	}
	newest := -1
	for i, at := range h.spills {
		if at >= 0 && at <= cut {
			newest = i
		}
	}
	if newest >= 0 {
		if sp == nil || len(sp.Sessions) != 1 {
			return fmt.Errorf("session spill %d lost: read %+v", newest, sp)
		}
		var got int
		fmt.Sscan(sp.Sessions[0].Token, &got)
		if got < newest {
			return fmt.Errorf("read session spill %d, want %d or later", got, newest)
		}
	}
	return nil
}

// TestCrashStatesKeepPromises is the crash checker. For each fsync policy it
// records one seeded scenario, once with every fsync succeeding and once with
// some fsyncs of WAL segments failing, and checks every crash state of every
// cut.
func TestCrashStatesKeepPromises(t *testing.T) {
	start := time.Now()
	var checked atomic.Int64
	t.Run("runs", func(t *testing.T) {
		for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
			for _, failSync := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/failSyncs=%v", policy, failSync), func(t *testing.T) {
					t.Parallel()
					fsys := newRecFS(t.TempDir())
					if failSync {
						fsys.failSyncs = rand.New(rand.NewSource(52))
					}
					h := runCrashScenario(t, fsys, policy, 51)
					checked.Add(int64(checkCuts(t, fsys.ops, policy, h)))
				})
			}
		}
	})
	t.Logf("%d crash states checked in %v", checked.Load(), time.Since(start).Round(time.Millisecond))
}

// checkCuts checks every distinct crash state of every cut of ops, each in
// a fresh directory, and returns how many it checked.
func checkCuts(t *testing.T, ops []fsOp, policy FsyncPolicy, h *crashHistory) int {
	base := t.TempDir()
	seen := map[string]bool{}
	failures := 0
	for cut := 0; cut <= len(ops); cut++ {
		for _, st := range crashStates(ops[:cut]) {
			key := stateKey(st.files)
			if st.strict {
				key += "!"
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			dir := filepath.Join(base, fmt.Sprint(len(seen)))
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range st.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := checkCrashState(dir, policy, h, cut, st); err != nil {
				t.Errorf("cut %d/%d (%v), state %s: %v", cut, len(ops), describeOp(ops, cut), st.kind, err)
				if failures++; failures == 5 {
					t.FailNow()
				}
			}
			os.RemoveAll(dir)
		}
	}
	return len(seen)
}

func describeOp(ops []fsOp, cut int) string {
	if cut == 0 {
		return "before any call"
	}
	op := ops[cut-1]
	names := [...]string{"create", "write", "sync", "rename", "remove", "syncdir"}
	return strings.TrimSpace(fmt.Sprintf("after %s of inode %d %s", names[op.kind], op.ino, op.name))
}

// faultFS is OS with two faults a test can arm: the shortWrite-th Write
// writes half its bytes and fails, and SyncDir fails while failDirSync is
// set.
type faultFS struct {
	writes, shortWrite int
	failDirSync        bool
}

type faultFile struct {
	File
	fs *faultFS
}

func (f *faultFS) OpenFile(name string, flag int) (File, error) {
	file, err := OS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return faultFile{file, f}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error { return OS.Rename(oldpath, newpath) }
func (f *faultFS) Remove(name string) error             { return OS.Remove(name) }

func (f *faultFS) SyncDir(dir string) error {
	if f.failDirSync {
		return errors.New("injected directory fsync failure")
	}
	return OS.SyncDir(dir)
}

func (f faultFile) Write(p []byte) (int, error) {
	if f.fs.writes++; f.fs.writes == f.fs.shortWrite {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("injected short write")
	}
	return f.File.Write(p)
}

// TestCheckpointDirSyncFailurePrunesNothing checks that a checkpoint whose
// rename may not be durable supersedes nothing: WriteCheckpoint fails, and
// every segment and the older checkpoint stay on disk.
func TestCheckpointDirSyncFailurePrunesNothing(t *testing.T) {
	dir := t.TempDir()
	fsys := &faultFS{}
	l, err := Open(dir, Options{Shards: 1, Fsync: FsyncOff, FS: fsys, segmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a := l.Shard(0)
	commit := func(n int) {
		for i := 0; i < n; i++ {
			a.StageWindow("s", int64(i), 0, DecisionAdmitted, 1, 0)
			if err := a.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit(3)
	if err := l.WriteCheckpoint(&Checkpoint{Shards: []ShardCheckpoint{{Shard: 0, WalLSN: a.LSN()}}}); err != nil {
		t.Fatal(err)
	}
	commit(3)
	before := dirNames(t, dir)
	fsys.failDirSync = true
	if err := l.WriteCheckpoint(&Checkpoint{Shards: []ShardCheckpoint{{Shard: 0, WalLSN: a.LSN()}}}); err == nil {
		t.Fatal("WriteCheckpoint succeeded without a durable rename")
	}
	after := map[string]bool{}
	for _, n := range dirNames(t, dir) {
		after[n] = true
	}
	for _, n := range before {
		if !after[n] {
			t.Errorf("%s removed by a checkpoint whose rename is not durable (before %v, after %v)", n, before, dirNames(t, dir))
		}
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestNoAppendBehindTornFrame checks that after a short write the appender
// starts a fresh segment: a rotation committed after the torn one is read
// back by Open.
func TestNoAppendBehindTornFrame(t *testing.T) {
	dir := t.TempDir()
	// Writes: segment header, rotation 1, then rotation 2 torn.
	fsys := &faultFS{shortWrite: 3}
	l, err := Open(dir, Options{Shards: 1, Fsync: FsyncOff, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	ctl := l.Control()
	if err := ctl.AppendRotation(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := ctl.AppendRotation(2, 2); err == nil {
		t.Fatal("torn AppendRotation succeeded")
	}
	if err := ctl.AppendRotation(3, 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Shards: 1, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var epochs []uint64
	for _, r := range l2.Recovery().ControlTail {
		epochs = append(epochs, r.BudgetEpoch)
	}
	if fmt.Sprint(epochs) != "[1 3]" {
		t.Fatalf("recovered rotations to epochs %v, want [1 3]", epochs)
	}
}

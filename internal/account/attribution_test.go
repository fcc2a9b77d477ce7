package account

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"patterndp/internal/dp"
)

// refAttribution is one shard's per-query attribution as ChargeQueries kept it
// before live queries shared one accumulator: a cell per live query, and every
// admitted window's charge added to each cell in turn. It is the oracle the
// shared-cell ledger is held to.
type refAttribution struct {
	names   []string
	cells   []float64
	retired map[string]float64
}

func newRefAttribution() *refAttribution {
	return &refAttribution{retired: map[string]float64{}}
}

func (r *refAttribution) setQueries(names []string) {
	if slices.Equal(r.names, names) {
		return
	}
	cells := make([]float64, len(names))
	for i, name := range r.names {
		if r.cells[i] == 0 {
			continue
		}
		if j, ok := slices.BinarySearch(names, name); ok {
			cells[j] = r.cells[i]
		} else {
			r.retired[name] += r.cells[i]
		}
	}
	r.names, r.cells = slices.Clone(names), cells
}

func (r *refAttribution) charge(c float64) {
	for i := range r.cells {
		r.cells[i] += c
	}
}

func (r *refAttribution) rotate() {
	for i, name := range r.names {
		if v := r.cells[i]; v != 0 {
			r.cells[i] = 0
			r.retired[name] += v
		}
	}
}

// restored is the reference of a shard restored from r's export under the
// restart's query set names, as RestoreAggregates folds it.
func (r *refAttribution) restored(names []string) *refAttribution {
	n := newRefAttribution()
	n.setQueries(names)
	for name, v := range r.retired {
		n.retired[name] += v
	}
	for i, name := range r.names {
		if v := r.cells[i]; v != 0 {
			if j, ok := slices.BinarySearch(n.names, name); ok {
				n.cells[j] += v
			} else {
				n.retired[name] += v
			}
		}
	}
	return n
}

// refStream mirrors one stream's live-epoch spend as Decide accumulates it.
type refStream struct {
	epoch uint64
	sum   dp.Sum
}

// TestAttributionMatchesPerCellReference drives the shared-cell attribution
// and the per-cell reference through the same seeded history — query churn,
// admitted and denied windows, budget-epoch rotations, and checkpoint export →
// restore into a fresh ledger — and holds every Snapshot to the reference:
// PerQuery and RetiredQueries within a relative 1e-12 (only the order of the
// float additions differs), Spent and each stream's spend bit for bit.
func TestAttributionMatchesPerCellReference(t *testing.T) {
	const shards, grant, ops = 3, 40, 3000
	pool := []string{"q0", "q1", "q2", "q3", "q4", "q5"} // sorted, so is every subset
	charges := []float64{0.1, 0.3, 0.7, 1.0 / 3}
	r := rand.New(rand.NewSource(5))
	randomNames := func() []string {
		var names []string
		for _, name := range pool {
			if r.Intn(2) == 0 {
				names = append(names, name)
			}
		}
		return names
	}

	l := NewLedger(grant, Deny, 1, shards)
	var epoch uint64
	names := make([][]string, shards)
	refs := make([]*refAttribution, shards)
	streams := make([]*StreamLedger, shards)
	refStreams := make([]refStream, shards)
	for i := 0; i < shards; i++ {
		names[i] = randomNames()
		l.Shard(i).SetQueries(names[i])
		refs[i] = newRefAttribution()
		refs[i].setQueries(names[i])
		streams[i] = l.Shard(i).OpenStream(fmt.Sprintf("s%d", i), epoch)
	}

	check := func(op int) {
		t.Helper()
		snap := l.Snapshot(epoch)
		perQ, retQ := map[string]float64{}, map[string]float64{}
		var spent dp.Sum
		for i, ref := range refs {
			for k, name := range ref.names {
				perQ[name] += ref.cells[k]
			}
			for name, v := range ref.retired {
				retQ[name] += v
			}
			if got, want := streams[i].spent.load(), refStreams[i].sum.Value(); got != want {
				t.Fatalf("op %d: stream %d spent %v, want %v bit for bit", op, i, got, want)
			}
			if refStreams[i].epoch == epoch {
				spent.Add(refStreams[i].sum.Value())
			}
		}
		if float64(snap.Spent) != spent.Value() {
			t.Fatalf("op %d: Spent %v, want %v bit for bit", op, snap.Spent, spent.Value())
		}
		for _, c := range []struct {
			what string
			got  []QuerySpend
			want map[string]float64
		}{{"PerQuery", snap.PerQuery, perQ}, {"RetiredQueries", snap.RetiredQueries, retQ}} {
			if len(c.got) != len(c.want) {
				t.Fatalf("op %d: %s = %v, want %v", op, c.what, c.got, c.want)
			}
			for _, q := range c.got {
				want, ok := c.want[q.Query]
				got := float64(q.Eps)
				if !ok || math.Abs(got-want) > 1e-12*math.Max(math.Abs(got), math.Abs(want)) {
					t.Fatalf("op %d: %s[%s] = %v, want %v", op, c.what, q.Query, got, want)
				}
			}
		}
	}

	var restores, rotations, churns, admitted int
	for op := 0; op < ops; op++ {
		switch k := r.Intn(100); {
		case k < 8:
			i := r.Intn(shards)
			names[i] = randomNames()
			l.Shard(i).SetQueries(names[i])
			refs[i].setQueries(names[i])
			churns++
		case k < 11:
			// A budget rotation reaches every shard; streams rotate their
			// spend lazily at their next decision.
			epoch++
			for i := range refs {
				l.Shard(i).Rotate()
				refs[i].rotate()
			}
			rotations++
		case k < 13:
			// Checkpoint export → restore into a fresh ledger, as a restart
			// does: the restart installs its query set before restoring.
			fresh := NewLedger(grant, Deny, 1, shards)
			fresh.RestoreRotations(l.Rotations())
			for i := range refs {
				sh := l.Shard(i)
				st := sh.ExportState()
				key := fmt.Sprintf("s%d", i)
				stream := ExportStream(streams[i])
				names[i] = randomNames()
				fresh.Shard(i).SetQueries(names[i])
				fresh.Shard(i).RestoreAggregates(st)
				streams[i] = fresh.Shard(i).RestoreStream(key, stream)
				refs[i] = refs[i].restored(names[i])
				// A restored stream restarts its compensated sum from the
				// exported value.
				var sum dp.Sum
				sum.Add(refStreams[i].sum.Value())
				refStreams[i].sum = sum
			}
			l = fresh
			restores++
		default:
			i := r.Intn(shards)
			c := charges[r.Intn(len(charges))]
			out := l.Decide(l.Shard(i), streams[i], int64(op), c, epoch)
			if refStreams[i].epoch != epoch {
				refStreams[i] = refStream{epoch: epoch}
			}
			if out.Decision == Admitted {
				l.Shard(i).ChargeQueries(c)
				refs[i].charge(c)
				refStreams[i].sum.Add(c)
				admitted++
			}
		}
		check(op)
	}
	if restores == 0 || rotations == 0 || churns == 0 || admitted < ops/2 {
		t.Fatalf("history covered %d restores, %d rotations, %d churns, %d admitted windows", restores, rotations, churns, admitted)
	}
}

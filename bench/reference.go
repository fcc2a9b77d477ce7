package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/wire"
)

// qualityTolerance is how far the delivered quality_q may sit from
// core.ExpectedQuality, either side: a run that perturbs too little is as
// wrong as one that perturbs too much.
const qualityTolerance = 0.03

// qualitySlack is the tolerance for a run that delivered n answers: the
// fixed tolerance plus sampling slack, which vanishes on a full-length run
// (0.003 at a million answers) and keeps a very short one from failing on
// the luck of the draw.
func qualitySlack(n int) float64 {
	return qualityTolerance + 3/math.Sqrt(float64(max(n, 1)))
}

// reference is the brute-force oracle: what every stream owes every query,
// worked out from the generated events alone — interval arithmetic for the
// window grid and the tree interpreter for detection, never the runtime's
// windower or compiled plans.
type reference struct {
	in *input
	// query maps a query name to its index in in.queries.
	query map[string]int
	// exact marks the queries that read no perturbed type: their delivered
	// Detected bit must equal the truth.
	exact []bool
	// truth[c][s][q][i] is query q's unperturbed answer on window i of
	// connection c's stream s, for i in [0, 2*Panes); later windows repeat
	// the second cycle.
	truth [][][][]bool
	// steady are the second-cycle windows' indicators, the population
	// core.ExpectedQuality is evaluated over.
	steady []core.IndicatorWindow
	// expected memoizes expectedQuality: the mechanism is rebuilt per
	// set-up, but deterministically from the input.
	expected *float64
}

func newReference(in *input) *reference {
	ref := &reference{in: in, query: make(map[string]int, len(in.queries)), exact: make([]bool, len(in.queries))}
	for qi, q := range in.queries {
		ref.query[q.Name] = qi
		ref.exact[qi] = !touchesPrivate(q, in.private)
	}
	k := in.wl.Panes
	for _, c := range in.conns {
		var perStream [][][]bool
		for s := range c.events {
			bits := make([][]bool, len(in.queries))
			for qi := range bits {
				bits[qi] = make([]bool, 2*k)
			}
			for i := 0; i < 2*k; i++ {
				present := c.windowTypes(s, int64(i), in.wl.Overlap)
				for qi, q := range in.queries {
					bits[qi][i] = cep.EvalIndicators(q.Pattern, present)
				}
				if i >= k {
					ref.steady = append(ref.steady, core.IndicatorWindow{Index: len(ref.steady), Present: present})
				}
			}
			perStream = append(perStream, bits)
		}
		ref.truth = append(ref.truth, perStream)
	}
	return ref
}

// windowTypes is the set of event types inside stream s's window i, by
// interval arithmetic over the cyclic feed: window i ends (i+1) panes past
// the stream's first pane, spans overlap panes, and an event of cycle 0 at
// time t recurs at t + y*span for every cycle y >= 0.
func (c *connInput) windowTypes(s int, i int64, overlap int) map[event.Type]bool {
	evs := c.events[s]
	end := c.base[s] + event.Timestamp(i+1)*paneWidth
	start := end - event.Timestamp(overlap)*paneWidth
	present := make(map[event.Type]bool)
	for y := max(start, 0) / c.span; y*c.span < end; y++ {
		lo, hi := start-y*c.span, end-y*c.span
		from := sort.Search(len(evs), func(j int) bool { return evs[j].Time >= lo })
		for _, e := range evs[from:] {
			if e.Time >= hi {
				break
			}
			present[e.Type] = true
		}
	}
	return present
}

// truthAt is query q's unperturbed answer on window i.
func (r *reference) truthAt(c, s, q int, i int64) bool {
	k := int64(r.in.wl.Panes)
	if i >= 2*k {
		i = k + i%k
	}
	return r.truth[c][s][q][i]
}

// delivered lists the indices of the queries a connection receives.
func (r *reference) delivered() []int {
	var qs []int
	if r.in.subscribed == nil {
		for qi := range r.in.queries {
			qs = append(qs, qi)
		}
		return qs
	}
	for _, name := range r.in.subscribed {
		qs = append(qs, r.query[name])
	}
	return qs
}

// flipProber is the part of the paper's PPMs the quality check needs.
type flipProber interface {
	FlipProbs() map[event.Type]float64
}

// expectedQuality is core.ExpectedQuality of the delivered queries over the
// steady-state windows under the mechanism's flip probabilities.
func (r *reference) expectedQuality(m core.Mechanism) (float64, error) {
	if r.expected != nil {
		return *r.expected, nil
	}
	fp, ok := m.(flipProber)
	if !ok {
		return 0, fmt.Errorf("mechanism %q exposes no flip probabilities", m.Name())
	}
	var targets []cep.Expr
	for _, qi := range r.delivered() {
		targets = append(targets, r.in.queries[qi].Pattern)
	}
	q := core.ExpectedQuality(r.steady, targets, fp.FlipProbs(), alpha, rand.New(rand.NewSource(r.in.seed)))
	r.expected = &q
	return q, nil
}

// violations counts every way a delivered answer stream can break the
// contract; each one counts into the run's failed total.
type violations struct {
	Missing     int64 // owed answers never delivered
	Unexpected  int64 // duplicates, reordering, unknown streams or queries
	Gaps        int64 // answers replaced by a Gap marker
	SeqBreaks   int64 // per-subscription Seq not contiguous
	Intervals   int64 // window interval differs from the grid
	Inexact     int64 // an unperturbed query's bit differs from the truth
	Spend       int64 // SpentEpsilon differs from windows x epsilon
	Suppressed  int64 // suppressed placeholders (the grant is never exhausted)
	IngestFails int64 // batches errored, refused, throttled or short-acked
}

func (v *violations) add(o violations) {
	v.Missing += o.Missing
	v.Unexpected += o.Unexpected
	v.Gaps += o.Gaps
	v.SeqBreaks += o.SeqBreaks
	v.Intervals += o.Intervals
	v.Inexact += o.Inexact
	v.Spend += o.Spend
	v.Suppressed += o.Suppressed
	v.IngestFails += o.IngestFails
}

func (v violations) total() int64 {
	return v.Missing + v.Unexpected + v.Gaps + v.SeqBreaks + v.Intervals + v.Inexact + v.Spend + v.Suppressed + v.IngestFails
}

// subChecker verifies one subscription's answer stream as it arrives. It is
// owned by the goroutine draining that subscription.
type subChecker struct {
	ref  *reference
	conn int
	// slot maps a query index to its column in next, -1 when the
	// subscription must never see the query.
	slot []int
	// next[s][slot] is the next window index owed for that stream and query.
	next    [][]int64
	lastSeq uint64
	// charge is the mechanism's per-window epsilon when the ledger is on.
	charge float64
	conf   metrics.Confusion
	bad    violations
}

func newSubChecker(ref *reference, conn int, queries []int, charge float64) *subChecker {
	k := &subChecker{ref: ref, conn: conn, slot: make([]int, len(ref.in.queries)), charge: charge}
	for qi := range k.slot {
		k.slot[qi] = -1
	}
	for col, qi := range queries {
		k.slot[qi] = col
	}
	k.next = make([][]int64, len(ref.in.conns[conn].streams))
	for s := range k.next {
		k.next[s] = make([]int64, len(queries))
	}
	return k
}

// observe checks one delivered answer and returns the stream and window it
// answers; ok is false when the answer matches nothing owed.
func (k *subChecker) observe(a *wire.Answer) (stream int, window int64, ok bool) {
	if a.Gap {
		k.bad.Gaps += int64(a.Seq - a.GapFrom + 1)
		k.lastSeq = a.Seq
		return 0, 0, false
	}
	if a.Seq != k.lastSeq+1 {
		k.bad.SeqBreaks++
	}
	k.lastSeq = a.Seq
	c := k.ref.in.conns[k.conn]
	s, okS := c.index[a.Stream]
	qi, okQ := k.ref.query[a.Query]
	if !okS || !okQ || k.slot[qi] < 0 {
		k.bad.Unexpected++
		return 0, 0, false
	}
	i := int64(a.WindowIndex)
	if want := &k.next[s][k.slot[qi]]; i != *want {
		if i < *want {
			k.bad.Unexpected++
			return 0, 0, false
		}
		k.bad.Missing += i - *want
		*want = i + 1
	} else {
		*want = i + 1
	}
	end := int64(c.base[s]) + (i+1)*paneWidth
	if a.End != end || a.Start != end-int64(k.ref.in.wl.Overlap)*paneWidth {
		k.bad.Intervals++
	}
	if a.Suppressed {
		k.bad.Suppressed++
		return s, i, true
	}
	truth := k.ref.truthAt(k.conn, s, qi, i)
	if k.ref.exact[qi] && a.Detected != truth {
		k.bad.Inexact++
	}
	k.conf.Add(truth, a.Detected)
	spent := float64(i+1) * k.charge
	if math.Abs(a.SpentEpsilon-spent) > dp.SpendTolerance(dp.Epsilon(spent)) {
		k.bad.Spend++
	}
	return s, i, true
}

// finish counts the answers still owed once batches 0..last were served.
func (k *subChecker) finish(last int64) {
	c := k.ref.in.conns[k.conn]
	b := c.cycleBatches()
	for s := range k.next {
		owed := int64(0)
		if last >= 0 {
			idx, cycles := c.steady(last)
			owed = int64(c.closed[s][idx]) + cycles*int64(c.closed[s][2*b-1]-c.closed[s][b-1])
		}
		for _, got := range k.next[s] {
			if got < owed {
				k.bad.Missing += owed - got
			} else if got > owed {
				k.bad.Unexpected += got - owed
			}
		}
	}
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
	"patterndp/internal/experiment"
	"patterndp/internal/synth"
)

// alpha weighs precision against recall in Q (paper: 0.5).
const alpha = 0.5

// schemaSeed draws the registered patterns — which types are private, which
// queries are asked. They are part of the workload, not of the seeded
// input: a run's seed changes the events every stream carries, never what
// the service is asked about them, so runs on different seeds measure the
// same job.
const schemaSeed = 1

// streamSeedStride spaces the per-stream generator seeds of one run seed, so
// that neighbouring run seeds share no stream's events.
const streamSeedStride = 1000003

// historyWindows is the schema dataset's window count; its first half is
// the history the AdaptivePPM is fitted on. (The paper uses 1000; the fit is
// repeated several times per run to steady setup_s, so a fifth of that.)
const historyWindows = 200

// input is everything the program under test is fed, derived from the
// workload and the seed alone: the registered patterns and one cyclic event
// feed per stream, pre-cut into the batch sequence each connection sends.
type input struct {
	wl      workload
	seed    int64
	private []core.PatternType
	// queries are the registered target queries, sorted by name.
	queries []cep.Query
	// subscribed are the query names each connection subscribes to; nil
	// means one subscribe-all subscription.
	subscribed []string
	// bench carries the history windows the AdaptivePPM is fitted on.
	bench *experiment.Bench
	conns []*connInput
	// hash fingerprints the generated events and patterns.
	hash string
}

// connInput is one connection's feed. The feed is cyclic: batch g of cycle y
// is batch g%B of cycle 0 with every timestamp shifted by y*span, so the
// tables below cover cycles 0 and 1 and extend periodically from there
// (cycle 0 differs from the steady state only in having no predecessor).
type connInput struct {
	tenant  string
	streams []string
	index   map[string]int
	// events are each stream's cycle-0 events in time order.
	events [][]event.Event
	// batches are the cycle-0 batch templates; a batch carries a run of
	// consecutive events from every stream.
	batches [][]event.Event
	// closed[s][g] counts stream s's windows closed once batch g is served,
	// for g in [0, 2B).
	closed [][]int32
	// closer[s][i] is the batch that closes stream s's window i, for every
	// i below closed[s][2B-1].
	closer [][]int32
	// owed[g] is the number of windows closed across all streams once batch
	// g is served, for g in [0, 2B).
	owed []int64
	// base[s] is the start of stream s's first pane.
	base []event.Timestamp
	span event.Timestamp
}

func (c *connInput) cycleBatches() int64 { return int64(len(c.batches)) }

// steady maps a batch number onto the tabulated range [0, 2B) and returns
// how many whole cycles were folded away.
func (c *connInput) steady(g int64) (idx, cycles int64) {
	b := c.cycleBatches()
	if g < 2*b {
		return g, 0
	}
	cycles = g/b - 1
	return g - cycles*b, cycles
}

// owedAfter is the number of windows closed across the connection's streams
// once batches 0..g have been served.
func (c *connInput) owedAfter(g int64) int64 {
	b := c.cycleBatches()
	idx, cycles := c.steady(g)
	perCycle := c.owed[2*b-1] - c.owed[b-1]
	return c.owed[idx] + cycles*perCycle
}

// closingBatch is the batch whose events closed stream s's window i.
func (c *connInput) closingBatch(s int, i int64) int64 {
	b := c.cycleBatches()
	hi := int64(c.closed[s][2*b-1])
	if i < hi {
		return int64(c.closer[s][i])
	}
	perCycle := hi - int64(c.closed[s][b-1])
	cycles := (i-hi)/perCycle + 1
	return int64(c.closer[s][i-cycles*perCycle]) + cycles*b
}

// fill builds batch g into dst: the cycle-0 template with times shifted.
func (c *connInput) fill(dst []event.Event, g int64) []event.Event {
	b := c.cycleBatches()
	shift := event.Timestamp(g/b) * c.span
	dst = append(dst[:0], c.batches[g%b]...)
	for i := range dst {
		dst[i].Time += shift
	}
	return dst
}

// generate derives a workload's whole input from the seed.
func generate(wl workload, seed int64) (*input, error) {
	cfg := synth.Config{
		NumTypes:    wl.NumTypes,
		NumWindows:  historyWindows,
		NumPatterns: 20,
		PatternLen:  3,
		NumPrivate:  3,
		NumTarget:   wl.NumTarget,
		WindowWidth: paneWidth,
		Seed:        schemaSeed,
	}
	schema, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &input{wl: wl, seed: seed, private: schema.PrivateTypes(), queries: schema.TargetQueries()}
	for i := range in.queries {
		in.queries[i].Window = event.Timestamp(wl.Overlap) * paneWidth
	}
	sort.Slice(in.queries, func(i, j int) bool { return in.queries[i].Name < in.queries[j].Name })
	in.subscribed = pickSubscriptions(in.queries, in.private, wl.Subscribe)
	if wl.Adaptive {
		if in.bench, err = experiment.SynthBench(cfg, 1, alpha); err != nil {
			return nil, err
		}
	}

	h := sha256.New()
	for _, q := range in.queries {
		fmt.Fprintf(h, "%s=%s;", q.Name, q.Pattern)
	}
	for _, p := range in.private {
		fmt.Fprintf(h, "%s=%v;", p.Name, p.Elements)
	}
	var enc []byte
	for ci := 0; ci < conns; ci++ {
		c := &connInput{
			tenant: fmt.Sprintf("t%d", ci),
			index:  make(map[string]int, wl.Streams),
			span:   event.Timestamp(wl.Panes) * paneWidth,
		}
		total := 0
		for s := 0; s < wl.Streams; s++ {
			stream := int64(ci*wl.Streams + s)
			evs, err := streamEvents(cfg, stream, seed, wl.Panes)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("s%d", s)
			if len(evs) == 0 {
				return nil, fmt.Errorf("stream %s/%s generated no events", c.tenant, name)
			}
			for i := range evs {
				evs[i].Source = name
			}
			c.index[name] = s
			c.streams = append(c.streams, name)
			c.events = append(c.events, evs)
			c.base = append(c.base, evs[0].Time/paneWidth*paneWidth)
			total += len(evs)
		}
		c.cut(max(total/wl.Batch, 1))
		for _, b := range c.batches {
			enc = event.AppendBinaryBatch(enc[:0], b)
			h.Write(enc)
		}
		in.conns = append(in.conns, c)
	}
	in.hash = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// streamEvents draws one stream's cycle of panes as Algorithm 2 does (lines
// 3-12: every type occurs in a pane independently with its natural
// occurrence probability, occurring events at consecutive offsets), with the
// generator's randomness split in two. The stream's occurrence probabilities
// come from the schema seed: like the registered patterns they decide how
// often each query fires, so they are part of the workload — drawn from the
// run's seed, quality_q would differ between seeds by 5-11 % and events per
// pane with it. The draws against those probabilities come from the run's
// seed alone.
func streamEvents(cfg synth.Config, stream, seed int64, panes int) ([]event.Event, error) {
	cfg.NumWindows = 1
	cfg.Seed = schemaSeed + 1 + stream
	model, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*streamSeedStride + stream))
	var evs []event.Event
	for m := 0; m < panes; m++ {
		t := event.Timestamp(m) * paneWidth
		for _, typ := range model.Types {
			if rng.Float64() < model.Occurrence[typ] {
				evs = append(evs, event.New(typ, t))
				t++
			}
		}
	}
	return evs, nil
}

// cut slices the connection's streams into nb batches per cycle — batch b
// carries events [b*n/nb, (b+1)*n/nb) of every n-event stream, so streams
// advance through their cycle together — and tabulates, from the event times
// alone, which windows each batch closes.
func (c *connInput) cut(nb int) {
	c.batches = make([][]event.Event, nb)
	for b := range c.batches {
		for _, evs := range c.events {
			c.batches[b] = append(c.batches[b], evs[b*len(evs)/nb:(b+1)*len(evs)/nb]...)
		}
	}
	ns := len(c.events)
	c.closed = make([][]int32, ns)
	c.closer = make([][]int32, ns)
	c.owed = make([]int64, 2*nb)
	for s, evs := range c.events {
		c.closed[s] = make([]int32, 2*nb)
		n := int32(0)
		for g := 0; g < 2*nb; g++ {
			b := g % nb
			if hi := (b + 1) * len(evs) / nb; hi > b*len(evs)/nb {
				// A window closes when an event at or past its end
				// arrives: the newest event sent decides how many have.
				newest := evs[hi-1].Time + event.Timestamp(g/nb)*c.span
				n = int32((newest - c.base[s]) / paneWidth)
			}
			for int32(len(c.closer[s])) < n {
				c.closer[s] = append(c.closer[s], int32(g))
			}
			c.closed[s][g] = n
			c.owed[g] += int64(n)
		}
	}
}

// pickSubscriptions chooses which n queries a connection subscribes to: a
// query sharing a type with a private pattern first (so quality_q measures
// perturbation), then one sharing none (so exact delivery is checked), then
// by name. n == 0 selects subscribe-all (nil).
func pickSubscriptions(queries []cep.Query, private []core.PatternType, n int) []string {
	if n == 0 {
		return nil
	}
	var perturbed, exact []string
	for _, q := range queries {
		if touchesPrivate(q, private) {
			perturbed = append(perturbed, q.Name)
		} else {
			exact = append(exact, q.Name)
		}
	}
	var picked []string
	for len(picked) < n && len(perturbed)+len(exact) > 0 {
		if len(perturbed) > 0 && (len(picked)%2 == 0 || len(exact) == 0) {
			picked, perturbed = append(picked, perturbed[0]), perturbed[1:]
		} else {
			picked, exact = append(picked, exact[0]), exact[1:]
		}
	}
	sort.Strings(picked)
	return picked
}

// touchesPrivate reports whether the query reads any type a private pattern
// perturbs; a query that reads none must be answered exactly.
func touchesPrivate(q cep.Query, private []core.PatternType) bool {
	for _, t := range q.Pattern.Types() {
		for _, p := range private {
			for _, e := range p.Elements {
				if e == t {
					return true
				}
			}
		}
	}
	return false
}

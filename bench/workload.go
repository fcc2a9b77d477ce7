package main

import (
	"fmt"
	"time"
)

// paneWidth is the logical-time width of one generated window (Algorithm 2's
// WindowWidth): the tumbling window width, or the slide of a sliding
// workload whose window spans Overlap panes.
const paneWidth = 100

// conns is the number of client connections (tenants t0, t1): one per vCPU
// of the reference box.
const conns = 2

// workload is one fixed traffic shape. The sizes are frozen: a later change
// compares against numbers measured on exactly these.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// NumTypes is Algorithm 2's type universe; about half the types occur
	// per pane, so it sets events per pane.
	NumTypes int
	// Overlap is panes per window; 1 is tumbling.
	Overlap int
	// NumTarget is the number of registered target queries.
	NumTarget int
	// Subscribe is how many named queries each connection subscribes to;
	// 0 opens one subscribe-all subscription.
	Subscribe int
	// Batch is the nominal events per ingest batch and Streams the streams
	// per connection a batch is spread over.
	Batch, Streams int
	// Panes is the per-stream cycle length: the generated dataset repeats,
	// time-shifted, every Panes panes.
	Panes int
	// Adaptive selects the paper's AdaptivePPM (fitted in set-up) instead of
	// the UniformPPM.
	Adaptive bool
	// Budget turns the ledger on (grant 1e12, deny policy: never exhausted).
	Budget bool
	// WAL turns durability on (fsync=interval) in a temp directory.
	WAL bool
	// Pace, when positive, makes the loop open: each connection sends one
	// batch every Pace regardless of replies.
	Pace time.Duration
}

var workloads = []workload{
	{
		Name:     "ingest_heavy",
		Why:      "few windows per event: event/wire decode, server admission and the shard hop do most of the work; cep/core/account/durable almost none",
		NumTypes: 64, Overlap: 1, NumTarget: 5, Subscribe: 1,
		Batch: 256, Streams: 32, Panes: 256,
	},
	{
		Name:     "serve_heavy",
		Why:      "a window every ~4 events x 12 plans with ledger and WAL: the most serving work per event (pane tally, plans, perturbation, commit), the least ingest work; a wire-ingest gain must not move it",
		NumTypes: 8, Overlap: 8, NumTarget: 12, Subscribe: 1,
		Batch: 256, Streams: 32, Panes: 512,
		Budget: true, WAL: true,
	},
	{
		Name:     "answer_fanout",
		Why:      "subscribe-all, ~3 answers per event: the server/wire layers run outbound (bus, replay ring, answer encode, socket, client decode)",
		NumTypes: 8, Overlap: 1, NumTarget: 12, Subscribe: 0,
		Batch: 64, Streams: 16, Panes: 512,
	},
	{
		Name:     "paced_adaptive",
		Why:      "open loop at a fixed rate with the fitted AdaptivePPM, ledger and WAL: the only shape where queueing, GC and flusher stalls reach latency and set-up does real work",
		NumTypes: 20, Overlap: 4, NumTarget: 12, Subscribe: 3,
		Batch: 64, Streams: 16, Panes: 256,
		Adaptive: true, Budget: true, WAL: true,
		Pace: time.Millisecond,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subsPerWindow is how many answers one closed window owes one connection.
func (w workload) subsPerWindow() int {
	if w.Subscribe == 0 {
		return w.NumTarget
	}
	return w.Subscribe
}

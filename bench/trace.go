package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// span is one timed call into a layer, recorded from outside it. Start and
// End are ns on the recording run's clock. Parent is the index (in the same
// list) of the span that contains it, -1 for a root; spans of one batch
// share Batch. A layer's self time is its spans' duration minus their
// children's.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Batch  int64  `json:"batch"`
}

// maxSpans caps what a traced run keeps in memory and writes out.
const maxSpans = 1 << 18

// recorder collects a traced run's spans; they stay in memory until the run
// ends.
type recorder struct {
	spans   []span
	dropped int
}

// appendSpans appends src to dst, re-basing parent indices.
func appendSpans(dst, src []span) []span {
	base := int32(len(dst))
	for _, s := range src {
		if s.Parent >= 0 {
			s.Parent += base
		}
		dst = append(dst, s)
	}
	return dst
}

// add merges a finished phase's spans, keeping whole lists while under the
// cap so parent links stay valid.
func (r *recorder) add(spans []span) {
	if len(r.spans)+len(spans) > maxSpans {
		r.dropped += len(spans)
		return
	}
	r.spans = appendSpans(r.spans, spans)
}

// write dumps the spans as JSON under dir.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.dropped, r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

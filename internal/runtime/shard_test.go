package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"patterndp/internal/core"
	"patterndp/internal/event"
)

// TestServingModesReleaseIdenticalAnswers is the differential for the one
// serving sequence: the ledger and the WAL are attachments to it, not other
// paths, so one seeded multi-stream batch feed must release the same answers
// — same windows, same noise draws — with the ledger off or on (under a grant
// it cannot exhaust) and the WAL off or on, over tumbling and over sliding
// windows. Only the budget position stamped on the answers may differ.
func TestServingModesReleaseIdenticalAnswers(t *testing.T) {
	// One producer goroutine and a fixed batch cut keep every shard's engine
	// call sequence, and with it the noise, deterministic.
	rng := rand.New(rand.NewSource(16))
	types := []event.Type{"a", "b", "c"}
	const streams = 6
	now := make([]event.Timestamp, streams)
	var feed []event.Event
	for i := 0; i < 900; i++ {
		s := rng.Intn(streams)
		now[s] += event.Timestamp(rng.Intn(5))
		feed = append(feed, event.New(types[rng.Intn(len(types))], now[s]).WithSource(fmt.Sprintf("stream-%d", s)))
	}
	run := func(t *testing.T, slide event.Timestamp, ledger, wal bool) map[string][]Answer {
		cfg := testConfig(t, 3)
		pt := cfg.Private[0]
		// ε = 1 flips often, so equal answers pin equal randomness.
		cfg.Mechanism = func(int) (core.Mechanism, error) { return core.NewUniformPPM(1, pt) }
		cfg.Slide = slide
		if ledger {
			cfg.Budget = 1e9
		}
		if wal {
			cfg.Durability = &DurabilityConfig{Dir: t.TempDir()}
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, wait := collectAnswers(t, rt)
		for i := 0; i < len(feed); i += 64 {
			if err := rt.IngestBatch(feed[i:min(i+64, len(feed))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		wait()
		return got
	}
	for _, slide := range []event.Timestamp{0, 5} {
		var want map[string][]Answer
		for _, ledger := range []bool{false, true} {
			for _, wal := range []bool{false, true} {
				name := fmt.Sprintf("slide=%d/ledger=%v/wal=%v", slide, ledger, wal)
				got := run(t, slide, ledger, wal)
				if want == nil {
					want = got
					if len(want) == 0 {
						t.Fatalf("%s: reference run released nothing", name)
					}
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s: answers for %d stream/query pairs, want %d", name, len(got), len(want))
				}
				for key, ref := range want {
					answers := got[key]
					if len(answers) != len(ref) {
						t.Fatalf("%s %s: %d answers, want %d", name, key, len(answers), len(ref))
					}
					for i, a := range answers {
						r := ref[i]
						if a.WindowIndex != r.WindowIndex || a.Start != r.Start ||
							a.Epoch != r.Epoch || a.Detected != r.Detected || a.Suppressed {
							t.Fatalf("%s %s answer %d: %+v, want %+v", name, key, i, a, r)
						}
						if (a.SpentEpsilon > 0) != ledger {
							t.Fatalf("%s %s answer %d: SpentEpsilon %v with ledger=%v", name, key, i, a.SpentEpsilon, ledger)
						}
					}
				}
			}
		}
	}
}

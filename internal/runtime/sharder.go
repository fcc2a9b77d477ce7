package runtime

import (
	"hash/fnv"

	"patterndp/internal/event"
)

// HashSharder routes stream keys to shards: FNV-1a over the key. Routing is
// deterministic per key, so one stream is always served by the same shard —
// that keeps per-stream window order intact — and it is the same function in
// every process, so checkpoint restore, WAL replay and a handoff peer re-route
// each recovered stream to the shard that holds its ledger.
type HashSharder struct{}

// Shard maps a stream key to a shard index in [0, n), n >= 1.
func (HashSharder) Shard(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// streamKey identifies the stream an event belongs to: its originating
// source. Events without a source share the single default stream "".
func streamKey(e event.Event) string { return e.Source }

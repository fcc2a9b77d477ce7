// Package account is the privacy-budget accounting and admission-control
// subsystem of the streaming runtime: windowed, per-stream budget ledgers
// over dp.Sum, wired into the answer-publish path.
//
// The unit of charge is one released window answer batch for one stream:
// every window the runtime releases for a stream spends the serving
// mechanism's per-window pattern-level budget (Mechanism.TotalEpsilon) from
// that stream's grant — answering n target queries from one release is
// post-processing and is charged once. Two composed quantities are tracked
// per stream:
//
//   - Spent: the sequential composition Σ ε over every window released in
//     the current budget epoch — the conservative epoch-lifetime bound the
//     grant is enforced against. Sums are Neumaier-compensated (dp.Sum), so
//     enforcement is exact to ulp scale no matter how many releases compose.
//   - Composed: the w-event bound of Kellaris et al. applied to sliding
//     overlap — the sum of charges over the last width/slide released
//     windows, i.e. the worst-case privacy loss of any single event, since
//     an event contributes to at most overlap consecutive windows. Under
//     tumbling windows this is the last release's charge (event-level DP).
//
// Streams are partitioned across shards by key, so shard sub-ledgers hold
// disjoint data and compose in parallel: the runtime-level per-subject
// guarantee is the maximum per-stream spend (Snapshot.MaxStreamSpent /
// MaxComposed), while Snapshot.Spent totals spend across streams for
// attribution. Each ShardLedger and its StreamLedgers have exactly one
// writer — the owning shard goroutine — so the publish path takes no locks:
// all published values live in single-writer atomic cells that Snapshot
// readers load concurrently. The shard-level mutex guards only the stream
// registry (open/evict) and the retired-spend archive, never a charge.
//
// When a release would push a stream past its grant, the configured Policy
// decides the outcome for that stream alone: Deny refuses the release,
// Suppress publishes a data-independent placeholder answer (ε-free), and
// Throttle halves the answer cadence once the stream nears exhaustion and
// denies past it. Grants are per (stream, budget epoch); the budget epoch
// moves only when the runtime's caller rotates it, which archives the old
// epoch's spend and restarts accumulation, and every answer carries the
// control-plane epoch it was served under so auditors can scope the
// guarantee to an epoch.
package account

import (
	"fmt"
	"math"
	"sync/atomic"

	"patterndp/internal/dp"
)

// Policy selects what the runtime does with a window release that a stream's
// remaining budget cannot cover.
type Policy int

const (
	// Deny refuses the release: the window is counted but answers nothing,
	// exactly as if no query were registered. The strictest policy — the
	// released answer stream provably never composes past the grant.
	Deny Policy = iota
	// Suppress publishes a data-independent placeholder: one answer per
	// query with Suppressed set and no detection, computed without touching
	// the window's data (ε-free). Consumers keep the answer cadence and an
	// explicit exhaustion signal, but no information.
	Suppress
	// Throttle degrades before exhausting: once a stream's remaining budget
	// falls under the low-water fraction of its grant (ThrottleAt), only
	// every other window is released — the skipped ones are suppressed,
	// stretching the remaining budget over twice the stream time. A release
	// the budget cannot cover at all is denied.
	Throttle
)

// String names the policy for logs and flags.
func (p Policy) String() string {
	switch p {
	case Deny:
		return "deny"
	case Suppress:
		return "suppress"
	case Throttle:
		return "throttle"
	default:
		return "unknown"
	}
}

// Valid reports whether p is a known policy.
func (p Policy) Valid() bool { return p >= Deny && p <= Throttle }

// ParsePolicy parses a policy name as printed by String.
func ParsePolicy(s string) (Policy, error) {
	for p := Deny; p <= Throttle; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("account: unknown budget policy %q", s)
}

// Decision is the admission-control verdict for one window release.
type Decision int

const (
	// Admitted means the release was charged and may be published.
	Admitted Decision = iota
	// Denied means the release must not be published at all.
	Denied
	// Suppressed means a data-independent placeholder may be published.
	Suppressed
	// Throttled is Suppressed by the Throttle policy's cadence halving —
	// counted separately so operators can tell graceful degradation from
	// exhaustion.
	Throttled
)

// String names the decision for logs and tests.
func (d Decision) String() string {
	switch d {
	case Admitted:
		return "admitted"
	case Denied:
		return "denied"
	case Suppressed:
		return "suppressed"
	case Throttled:
		return "throttled"
	default:
		return "unknown"
	}
}

// Outcome is one admission decision with the stream's post-decision budget
// position, for stamping onto published answers.
type Outcome struct {
	// Decision is the verdict.
	Decision Decision
	// Spent is the stream's sequential spend in its current budget epoch,
	// after this decision's charge (if any).
	Spent dp.Epsilon
	// Remaining is the unspent grant (never negative).
	Remaining dp.Epsilon
}

// epsCell is a float64 published by exactly one writer goroutine and loaded
// by concurrent readers. The single-writer discipline makes load-modify-store
// race-free without CAS loops.
type epsCell struct{ bits atomic.Uint64 }

func (c *epsCell) load() float64   { return math.Float64frombits(c.bits.Load()) }
func (c *epsCell) store(v float64) { c.bits.Store(math.Float64bits(v)) }
func (c *epsCell) add(v float64)   { c.store(c.load() + v) }

package runtime

import (
	"errors"
	"fmt"
	"sort"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/durable"
)

// Epoch numbers control-plane states. Every successful registration change
// (private pattern types or target queries) produces the next epoch; shards
// apply epochs only at per-stream window boundaries, and every released
// answer carries the epoch it was served under, so consumers can always map
// an answer back to the exact registration state that produced it.
type Epoch uint64

// ErrUnknownQuery is returned (wrapped, with the query name) by Subscribe
// and UnregisterQuery when no target query with that name is registered.
var ErrUnknownQuery = errors.New("runtime: unknown query")

// ErrUnknownPrivate is returned (wrapped, with the type name) by
// UnregisterPrivate when no private pattern type with that name is
// registered.
var ErrUnknownPrivate = errors.New("runtime: unknown private pattern type")

// ErrLastPrivate is returned by UnregisterPrivate when removing the type
// would leave the runtime with nothing to protect: a serving layer with an
// empty private set would release raw indicators, so the last type can only
// be retired by closing the runtime.
var ErrLastPrivate = errors.New("runtime: cannot unregister the last private pattern type")

// ErrStaticMechanism is returned by RegisterPrivate when the runtime was
// built with only the static Mechanism factory: a mechanism constructed
// without knowledge of the new type would release its elements unperturbed.
// Configure MechanismFor to serve a dynamic private set.
var ErrStaticMechanism = errors.New("runtime: RegisterPrivate requires Config.MechanismFor")

// controlState is one immutable epoch of the control plane: the private
// pattern types and target queries in force. States are copy-on-write —
// every mutation publishes a fresh state, so shards and subscribers read a
// consistent registration set with one atomic load.
type controlState struct {
	// epoch is this state's sequence number (0 is the construction state).
	epoch Epoch
	// privEpoch is the epoch at which the private set last changed. Shards
	// rebuild mechanism and engine only when it moves; query-only epochs
	// adjust the live engine's target set in place, preserving mechanism
	// state.
	privEpoch Epoch
	// budgetEpoch is the epoch at which the privacy-budget grant was last
	// rotated (0 is the construction grant). Shards apply it at window
	// boundaries like every epoch; streams restart their spend
	// accumulation under the fresh grant at their next release. See
	// Runtime.RotateBudget and the BudgetRotateEpoch policy.
	budgetEpoch Epoch
	// private are the protected pattern types, sorted by name.
	private []core.PatternType
	// targets are the registered target queries, sorted by name.
	targets []cep.Query
	// plans are the targets' compiled query plans, parallel to targets.
	// They are compiled once per epoch, here, and shared read-only by
	// every shard's engine — plans are immutable and safe for concurrent
	// evaluation, so applying a query epoch costs a shard one snapshot
	// swap instead of a recompilation.
	plans []*cep.Plan
	// queries indexes targets by name.
	queries map[string]bool
}

// newControlState builds the construction-time epoch 0 from a validated
// config. Names are the control-plane identity, so duplicates in the config
// collapse last-wins — exactly what registering the same name twice would
// leave behind.
func newControlState(private []core.PatternType, targets []cep.Query) *controlState {
	st := &controlState{}
	byType := make(map[string]core.PatternType, len(private))
	for _, pt := range private {
		byType[pt.Name] = pt
	}
	for _, pt := range byType {
		st.private = append(st.private, pt)
	}
	sort.Slice(st.private, func(i, j int) bool { return st.private[i].Name < st.private[j].Name })
	byQuery := make(map[string]cep.Query, len(targets))
	for _, q := range targets {
		byQuery[q.Name] = q
	}
	st.queries = make(map[string]bool, len(byQuery))
	for name, q := range byQuery {
		st.targets = append(st.targets, q)
		st.queries[name] = true
	}
	sort.Slice(st.targets, func(i, j int) bool { return st.targets[i].Name < st.targets[j].Name })
	st.recompile(nil)
	return st
}

// recompile rebuilds the epoch's compiled plan set from its target queries,
// reusing prev's compiled plan for every query that is unchanged since that
// epoch — only added or replaced queries are compiled. Together with clone
// (which carries the plan slice across private-set-only epochs untouched),
// this keeps plan pointer identity stable across every epoch that does not
// change the query itself, so shards swap snapshots without recompilation.
// Queries are validated before they
// reach a control state (Config.validate at construction, RegisterQuery
// while serving), so compilation cannot fail.
func (st *controlState) recompile(prev *controlState) {
	st.plans = make([]*cep.Plan, len(st.targets))
	// Both target slices are name-sorted, so a lockstep merge finds each
	// query's previous incarnation in O(n) total.
	j := 0
	for i, q := range st.targets {
		if prev != nil {
			for j < len(prev.targets) && prev.targets[j].Name < q.Name {
				j++
			}
			// Reuse requires the plan to have been compiled from exactly
			// this query: same name, same pattern tree (pointer identity —
			// registered patterns are immutable, see RegisterQuery), same
			// window.
			if j < len(prev.targets) && prev.targets[j].Name == q.Name &&
				prev.targets[j].Pattern == q.Pattern && prev.targets[j].Window == q.Window {
				st.plans[i] = prev.plans[j]
				continue
			}
		}
		st.plans[i] = cep.MustCompile(q)
	}
}

// clone copies the state so a mutation never aliases a published epoch.
func (st *controlState) clone() *controlState {
	next := &controlState{
		epoch:       st.epoch,
		privEpoch:   st.privEpoch,
		budgetEpoch: st.budgetEpoch,
		private:     append([]core.PatternType(nil), st.private...),
		targets:     append([]cep.Query(nil), st.targets...),
		plans:       st.plans, // replaced by recompile when targets change
		queries:     make(map[string]bool, len(st.queries)),
	}
	for name := range st.queries {
		next.queries[name] = true
	}
	return next
}

// mutate serializes one control-plane change: it clones the current state,
// stamps the next epoch, applies f, and publishes the result. Failed
// mutations consume no epoch. The returned epoch is the one the change took
// effect under. The closed check and the publish share one rt.mu read
// section, so a mutation racing Close either lands before the drain starts —
// and is applied by every shard's drain flush — or fails with ErrClosed;
// it can never report success for an epoch no shard will ever serve.
func (rt *Runtime) mutate(f func(prev, next *controlState) error) (Epoch, error) {
	rt.ctlMu.Lock()
	defer rt.ctlMu.Unlock()
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.closed {
		return 0, ErrClosed
	}
	prev := rt.ctl.Load()
	next := prev.clone()
	next.epoch++
	if err := f(prev, next); err != nil {
		return 0, err
	}
	rt.ctl.Store(next)
	return next.epoch, nil
}

// RegisterPrivate registers a data subject's private pattern type while
// serving, replacing any registered type with the same name. It requires the
// set-aware MechanismFor factory — see ErrStaticMechanism. The change takes
// effect per shard at the next window boundary, when the shard rebuilds its
// mechanism over the new private set; windows already being served are
// finished under their old epoch, so no window is ever protected by a
// half-applied state.
func (rt *Runtime) RegisterPrivate(pt core.PatternType) (Epoch, error) {
	if rt.cfg.MechanismFor == nil {
		return 0, ErrStaticMechanism
	}
	valid, err := core.NewPatternType(pt.Name, pt.Elements...)
	if err != nil {
		return 0, err
	}
	ep, err := rt.mutate(func(_, st *controlState) error {
		st.setPrivate(valid)
		return nil
	})
	if err == nil {
		err = rt.logControl(func(a *durable.Appender) error {
			return a.AppendRegistration(durable.OpRegisterPrivate, uint64(ep), valid.Name)
		})
	}
	return ep, err
}

// UnregisterPrivate retires the private pattern type with pt's name. The
// last remaining type cannot be removed (ErrLastPrivate). With the static
// Mechanism factory the rebuilt mechanism keeps protecting the retired
// type's elements — over-protection is privacy-safe; with MechanismFor the
// budget is re-split over the remaining set.
func (rt *Runtime) UnregisterPrivate(pt core.PatternType) (Epoch, error) {
	ep, err := rt.mutate(func(_, st *controlState) error {
		idx := -1
		for i, p := range st.private {
			if p.Name == pt.Name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("%w: %q", ErrUnknownPrivate, pt.Name)
		}
		if len(st.private) == 1 {
			return ErrLastPrivate
		}
		st.private = append(st.private[:idx:idx], st.private[idx+1:]...)
		st.privEpoch = st.epoch
		return nil
	})
	if err == nil {
		err = rt.logControl(func(a *durable.Appender) error {
			return a.AppendRegistration(durable.OpUnregisterPrivate, uint64(ep), pt.Name)
		})
	}
	return ep, err
}

// setPrivate adds or replaces one private type, keeping the slice sorted.
func (st *controlState) setPrivate(pt core.PatternType) {
	for i, p := range st.private {
		if p.Name == pt.Name {
			st.private[i] = pt
			st.privEpoch = st.epoch
			return
		}
	}
	st.private = append(st.private, pt)
	sort.Slice(st.private, func(i, j int) bool { return st.private[i].Name < st.private[j].Name })
	st.privEpoch = st.epoch
}

// RegisterQuery registers a data consumer's target query while serving,
// replacing any registered query with the same name. Each shard starts
// answering it at its next window boundary; subscribe to the query's name
// (before or after registering) to receive the answers.
//
// The query's pattern tree must not be mutated after registration: compiled
// plans (this epoch's and any earlier epoch still serving in-flight windows)
// alias the tree, and plan reuse across epochs identifies an unchanged query
// by its pattern pointer. To change a query's pattern, re-register its name
// with a freshly built expression.
func (rt *Runtime) RegisterQuery(q cep.Query) (Epoch, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	ep, err := rt.mutate(func(prev, st *controlState) error {
		if st.queries[q.Name] {
			for i := range st.targets {
				if st.targets[i].Name == q.Name {
					st.targets[i] = q
					break
				}
			}
			st.recompile(prev)
			return nil
		}
		st.targets = append(st.targets, q)
		sort.Slice(st.targets, func(i, j int) bool { return st.targets[i].Name < st.targets[j].Name })
		st.queries[q.Name] = true
		st.recompile(prev)
		return nil
	})
	if err == nil {
		err = rt.logControl(func(a *durable.Appender) error {
			return a.AppendRegistration(durable.OpRegisterQuery, uint64(ep), q.Name)
		})
	}
	return ep, err
}

// UnregisterQuery cancels the target query with q's name
// (ErrUnknownQuery when none is registered). Shards stop answering it at
// their next window boundary; existing subscriptions stay open and simply
// receive nothing further for it.
func (rt *Runtime) UnregisterQuery(q cep.Query) (Epoch, error) {
	ep, err := rt.mutate(func(prev, st *controlState) error {
		if !st.queries[q.Name] {
			return fmt.Errorf("%w: %q", ErrUnknownQuery, q.Name)
		}
		delete(st.queries, q.Name)
		for i := range st.targets {
			if st.targets[i].Name == q.Name {
				st.targets = append(st.targets[:i:i], st.targets[i+1:]...)
				break
			}
		}
		st.recompile(prev)
		return nil
	})
	if err == nil {
		err = rt.logControl(func(a *durable.Appender) error {
			return a.AppendRegistration(durable.OpUnregisterQuery, uint64(ep), q.Name)
		})
	}
	return ep, err
}

// targetNames returns the state's target-query names (sorted, since targets
// are name-sorted) for per-query budget attribution.
func (st *controlState) targetNames() []string {
	names := make([]string, len(st.targets))
	for i, q := range st.targets {
		names[i] = q.Name
	}
	return names
}

// RotateBudget rotates the privacy-budget epoch: every stream's spend
// accumulation restarts under a fresh Config.Budget grant at the stream's
// next release, and the retired epoch's spend is archived in
// Stats.Budget.Retired. Like every control-plane change it is stamped with
// the next epoch and applied by shards at window boundaries, so answers
// served under the fresh grant carry an epoch at or past the returned one.
// Rotation is the explicit, audited decision to scope the privacy guarantee
// to a new epoch — see the account package docs. It works (as a plain epoch
// stamp) even when accounting is disabled.
func (rt *Runtime) RotateBudget() (Epoch, error) {
	ep, err := rt.mutate(func(_, next *controlState) error {
		next.budgetEpoch = next.epoch
		return nil
	})
	if err == nil {
		if rt.ledger != nil {
			rt.ledger.CountRotation()
		}
		// Rotation records make the budget epoch recoverable: without one, a
		// restart would re-grant streams their spent budget.
		err = rt.logControl(func(a *durable.Appender) error {
			return a.AppendRotation(uint64(ep), uint64(ep))
		})
	}
	return ep, err
}

// errStaleRotation aborts a shard-requested rotation that lost the race to
// another rotation of the same observed epoch.
var errStaleRotation = errors.New("runtime: stale budget rotation")

// rotateBudgetFrom is the BudgetRotateEpoch policy's level-triggered
// rotation: it rotates only if the budget epoch still equals the one the
// shard observed when its stream exhausted, so many streams exhausting under
// one epoch produce one rotation, not a storm.
func (rt *Runtime) rotateBudgetFrom(observed Epoch) (Epoch, error) {
	ep, err := rt.mutate(func(prev, next *controlState) error {
		if prev.budgetEpoch != observed {
			return errStaleRotation
		}
		next.budgetEpoch = next.epoch
		return nil
	})
	if errors.Is(err, errStaleRotation) {
		return rt.ctl.Load().budgetEpoch, nil
	}
	if err == nil {
		if rt.ledger != nil {
			rt.ledger.CountRotation()
		}
		err = rt.logControl(func(a *durable.Appender) error {
			return a.AppendRotation(uint64(ep), uint64(ep))
		})
	}
	return ep, err
}

// BudgetEpoch returns the current budget epoch: the control-plane epoch at
// which the per-stream grant was last rotated (0 before any rotation).
func (rt *Runtime) BudgetEpoch() Epoch { return rt.ctl.Load().budgetEpoch }

// Epoch returns the current control-plane epoch. Shards converge to it at
// their next window boundary; per-shard applied epochs are in Snapshot.
func (rt *Runtime) Epoch() Epoch { return rt.ctl.Load().epoch }

// Queries returns the currently registered target queries sorted by name.
func (rt *Runtime) Queries() []cep.Query {
	st := rt.ctl.Load()
	out := make([]cep.Query, len(st.targets))
	copy(out, st.targets)
	return out
}

// HasQuery reports whether a target query is currently registered under name:
// one map lookup, no copy. The answer can be stale by the time it is used —
// Subscribe and Attach still vet the name themselves — so it is for declining
// early, before building state for a subscription that cannot attach.
func (rt *Runtime) HasQuery(name string) bool { return rt.ctl.Load().queries[name] }

// PrivateTypes returns the currently registered private pattern types sorted
// by name.
func (rt *Runtime) PrivateTypes() []core.PatternType {
	st := rt.ctl.Load()
	out := make([]core.PatternType, len(st.private))
	copy(out, st.private)
	return out
}

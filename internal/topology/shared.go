package topology

import (
	"fmt"
	"slices"

	"repro/internal/stream"
)

// fanOut is the per-subplan delivery point: the merge plan's single output
// attaches here once, and every query sharing the subplan registers its own
// sink. Batches flow through unchanged — the fan draws no randomness and
// keeps no state — so attaching or detaching a member never perturbs the
// fabricated bytes any other member observes.
//
// Concurrency: membership mutates only under the fabricator's write lock;
// Process runs under the read lock (epoch execution). The fan pointer
// itself is stable for the subplan's lifetime, so compiled fused programs
// that captured it as a stage output stay valid across member churn — the
// whole point: attach/detach without invalidating any fused program.
type fanOut struct {
	ids   []string
	sinks []stream.Processor
}

// Process forwards the batch to every member sink in attach order.
func (f *fanOut) Process(b stream.Batch) error {
	for _, s := range f.sinks {
		if err := s.Process(b); err != nil {
			return err
		}
	}
	return nil
}

// add registers a member's sink.
func (f *fanOut) add(id string, sink stream.Processor) {
	f.ids = append(f.ids, id)
	f.sinks = append(f.sinks, sink)
}

// remove detaches a member's sink; false when the id is not a member.
func (f *fanOut) remove(id string) bool {
	i := slices.Index(f.ids, id)
	if i < 0 {
		return false
	}
	// slices.Delete zeroes the vacated tail slot, so the backing array
	// does not keep the removed sink (and its result store) reachable.
	f.ids = slices.Delete(f.ids, i, i+1)
	f.sinks = slices.Delete(f.sinks, i, i+1)
	return true
}

// SharedStats snapshots the fabricator's subplan-sharing accounting for
// /status and the churn tests.
type SharedStats struct {
	// Subplans is the number of distinct fabricated subplans live right now;
	// with sharing enabled this is what epoch cost scales with, not the
	// resident query count.
	Subplans int
	// SharedSubplans counts subplans with ≥ 2 attached queries — the
	// /status "sharedPrefixes" figure.
	SharedSubplans int
	// Queries is the resident query count across all subplans.
	Queries int
	// SharedQueries counts queries attached to a subplan with ≥ 2 members.
	SharedQueries int
	// Attaches is the lifetime number of insertions absorbed by an already
	// fabricated subplan (no new operators, no fused invalidation).
	Attaches uint64
}

// SharedGroupInfo describes one live shared subplan.
type SharedGroupInfo struct {
	// Key is the canonical CrAQL key the subplan is deduplicated under.
	Key string
	// Mode is the merge topology the subplan was fabricated with — the live
	// mode every member's EXPLAIN reports.
	Mode MergeMode
	// Refs is the number of queries currently attached.
	Refs int
}

// SharingEnabled reports whether the fabricator deduplicates subplans
// across queries (the default) or fabricates every query independently
// (Config.DisableSharing — the differential harness's control arm).
func (f *Fabricator) SharingEnabled() bool { return !f.cfg.DisableSharing }

// SharedGroup looks up the live shared subplan for a canonical CrAQL key
// (see craql.CanonicalKey); false when no query with that normal form is
// resident or sharing is disabled.
func (f *Fabricator) SharedGroup(key string) (SharedGroupInfo, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	sp, ok := f.shared[key]
	if !ok {
		return SharedGroupInfo{}, false
	}
	return SharedGroupInfo{Key: key, Mode: sp.plan.Mode, Refs: len(sp.refs)}, true
}

// QuerySharedGroup reports the shared subplan a live query is attached to.
func (f *Fabricator) QuerySharedGroup(id string) (SharedGroupInfo, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	sp, ok := f.queries[id]
	if !ok {
		return SharedGroupInfo{}, false
	}
	return SharedGroupInfo{Key: sp.key, Mode: sp.plan.Mode, Refs: len(sp.refs)}, true
}

// SharedStats snapshots subplan-sharing accounting.
func (f *Fabricator) SharedStats() SharedStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := SharedStats{Queries: len(f.queries), Attaches: f.sharedAttaches}
	for _, sp := range f.distinctStates() {
		st.Subplans++
		if len(sp.refs) >= 2 {
			st.SharedSubplans++
			st.SharedQueries += len(sp.refs)
		}
	}
	return st
}

// AttrVersion returns the structural version of one attribute's topology:
// it advances whenever a subplan is fabricated or torn down for that
// attribute, and stays put across pure attach/detach churn on existing
// subplans. The engine's plan cache validates entries against it, so
// re-costing happens only when the attribute's shared prefixes actually
// changed — churn on other attributes (or refcount-only churn) never
// invalidates a cached plan.
func (f *Fabricator) AttrVersion(attr string) uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.versions[attr]
}

// distinctStates returns the distinct subplan states across f.queries (a
// shared subplan appears once). Callers hold f.mu.
func (f *Fabricator) distinctStates() []*queryState {
	seen := make(map[*queryState]bool, len(f.queries))
	out := make([]*queryState, 0, len(f.queries))
	for _, sp := range f.queries {
		if !seen[sp] {
			seen[sp] = true
			out = append(out, sp)
		}
	}
	return out
}

// checkShared verifies the sharing bookkeeping: member maps, fan
// membership and the shared index agree. Called by CheckInvariants with
// f.mu held.
func (f *Fabricator) checkShared() error {
	for id, sp := range f.queries {
		member := false
		for _, ref := range sp.refs {
			if ref == id {
				member = true
				break
			}
		}
		if !member {
			return fmt.Errorf("topology: query %s not in its subplan's member list %v", id, sp.refs)
		}
	}
	for _, sp := range f.distinctStates() {
		if len(sp.refs) != len(sp.fan.ids) {
			return fmt.Errorf("topology: subplan %s: %d members but %d fan sinks", sp.tapID, len(sp.refs), len(sp.fan.ids))
		}
		for _, ref := range sp.refs {
			got, ok := f.queries[ref]
			if !ok {
				return fmt.Errorf("topology: subplan %s lists unknown member %s", sp.tapID, ref)
			}
			if got != sp {
				return fmt.Errorf("topology: member %s points at a different subplan", ref)
			}
			if !sp.fan.has(ref) {
				return fmt.Errorf("topology: member %s missing from subplan %s fan", ref, sp.tapID)
			}
		}
		if sp.key != "" {
			if got, ok := f.shared[sp.key]; !ok || got != sp {
				return fmt.Errorf("topology: subplan %s not indexed under its key %q", sp.tapID, sp.key)
			}
		}
	}
	for key, sp := range f.shared {
		if len(sp.refs) == 0 {
			return fmt.Errorf("topology: shared index holds empty subplan under %q", key)
		}
	}
	return nil
}

// has reports membership without mutating.
func (f *fanOut) has(id string) bool {
	for _, got := range f.ids {
		if got == id {
			return true
		}
	}
	return false
}

package serve

import (
	"errors"
	"time"

	"repro/internal/epoch"
	"repro/internal/la"
)

// PatchStats counts the incremental partial-product maintenance an
// epoch-backed Scorer has performed. Snapshot via Scorer.PatchStats.
type PatchStats struct {
	// Commits is the number of epochs applied by incremental patching.
	Commits uint64
	// Rows is the total number of changed rows patched across commits.
	Rows uint64
	// LastPatch and TotalPatch time the patch work (clone changed
	// vectors + per-row dot products), excluding lock waits.
	LastPatch  time.Duration
	TotalPatch time.Duration
}

// EpochScorer is the historical name of a Scorer built by
// NewEpochScorer: a full scorer subscribed to a versioned store.
type EpochScorer = Scorer

// NewEpochScorer builds a scorer over the versioned store with weight
// vector w (d×1 or 1×d, copied) and link head, subscribed to the
// store's commits: the returned scorer tracks every subsequent epoch
// automatically, keeping its cached partials current by incremental
// patching — for each changed row r of table t it subtracts the old
// row's contribution dot(old, w_{R_t}) and adds the new one, O(changed
// rows × row width) per commit instead of a full O(nnz) rebuild, and
// within 1e-12 of one. Commits that land during construction are
// applied before the first score, in order — no epoch is skipped or
// doubled.
func NewEpochScorer(store *epoch.Store, w *la.Dense, head Head) (*EpochScorer, error) {
	if store == nil {
		return nil, errors.New("serve: nil epoch store")
	}
	s, wCol, err := newScorer(store, w, head, 0, 1)
	if err != nil {
		return nil, err
	}
	s.store = store
	// Subscribe first: the listener buffers commits until the first
	// generation exists (s.gen == nil), so nothing slips between the
	// pinned snapshot below and the first applyCommit.
	snap := store.Subscribe(s.applyCommit)
	defer snap.Release()
	g := s.snapshotGeneration(snap, wCol)
	s.mu.Lock()
	s.gen = g
	for _, c := range s.early {
		s.patchLocked(c)
	}
	s.early = nil
	s.mu.Unlock()
	return s, nil
}

// snapshotGeneration builds a generation from the tables of snap, at
// snap's epoch.
func (s *Scorer) snapshotGeneration(snap *epoch.Snapshot, wCol *la.Dense) *generation {
	rs := make([]la.Mat, snap.NumTables())
	for t := range rs {
		rs[t] = snap.R(t)
	}
	g := s.computeGeneration(snap.S(), rs, wCol)
	g.version = snap.Version()
	return g
}

// applyCommit is the store listener: it patches the cached partials for
// one commit. It runs on the committing goroutine under the store's
// write lock, serialized and in version order.
func (s *Scorer) applyCommit(c *epoch.Commit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen == nil {
		s.early = append(s.early, c)
		return
	}
	s.patchLocked(c)
}

// patchLocked applies one commit's deltas to a copy-on-write clone of
// the affected partial vectors; unchanged tables share their slice with
// the previous generation, so in-flight requests keep reading theirs
// untouched. Callers hold s.mu exclusively. Commits at or below the
// cached version are skipped (idempotence: UpdateWeights may already
// have recomputed at that epoch).
func (s *Scorer) patchLocked(c *epoch.Commit) {
	if c.Version <= s.gen.version {
		return
	}
	ng := *s.gen
	ng.version = c.Version
	rows := c.RowsChanged()
	if rows == 0 {
		s.gen = &ng
		return
	}
	start := time.Now()
	// Weight block b of T (entity first, then tables) is w[off:off+width].
	w := ng.w.Data()
	off := s.store.EntityCols()
	if c.Entity != nil {
		wS := w[:off]
		ng.sw = append([]float64(nil), ng.sw...)
		for i, r := range c.Entity.Rows {
			ng.sw[r] += dot(c.Entity.New[i], wS) - dot(c.Entity.Old[i], wS)
		}
	}
	ng.parts = append([][]float64(nil), ng.parts...)
	for t, d := range c.Attrs {
		dR := s.store.AttrCols(t)
		if d != nil {
			wR := w[off : off+dR]
			parts := append([]float64(nil), ng.parts[t]...)
			for i, r := range d.Rows {
				parts[r] += dot(d.New[i], wR) - dot(d.Old[i], wR)
			}
			ng.parts[t] = parts
		}
		off += dR
	}
	s.gen = &ng
	el := time.Since(start)
	s.stats.Commits++
	s.stats.Rows += uint64(rows)
	s.stats.LastPatch = el
	s.stats.TotalPatch += el
}

func dot(a, b []float64) float64 {
	m := 0.0
	for i, x := range a {
		m += x * b[i]
	}
	return m
}

// Version reports the epoch the scorer currently serves; it advances
// synchronously with Store.Commit. It is 0 for a scorer over an
// immutable store.
func (s *Scorer) Version() epoch.Version { return s.current().version }

// PatchStats returns a snapshot of the incremental-maintenance counters
// (all zero for a scorer over an immutable store).
func (s *Scorer) PatchStats() PatchStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

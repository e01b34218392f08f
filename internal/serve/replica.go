package serve

import (
	"errors"

	"repro/internal/core"
	"repro/internal/la"
)

// Replica is one member of a serving fleet: the scoring surface the
// Router fans batches out to, plus the management surface fleet-wide
// operations (weight updates) apply through. Scorer and Router both
// satisfy it, so fleets compose — instrumentation wrappers only need to
// embed a Replica and override the calls they care about.
type Replica interface {
	BatchScorer
	// UpdateWeights atomically replaces this replica's model.
	UpdateWeights(w *la.Dense) error
}

var _ Replica = (*Scorer)(nil)

// ShardedScorer is the historical name of a Scorer built by
// NewShardedScorer: one hash slice of a fleet.
type ShardedScorer = Scorer

// NewShardedScorer builds slice shard of an `of`-way hash-sharded fleet
// over nm: the scorer owns the rows with id ≡ shard (mod of). Arguments
// match NewScorer, plus the shard coordinates 0 <= shard < of. A fleet
// of `of` sharded scorers holds the row-indexed entity cache exactly once
// across the fleet instead of once per replica; the attribute-table
// partials R_t·w_{R_t} are indexed by attribute tuple, not by row, and
// are kept whole on every replica (in the paper's high-tuple-ratio regime
// they are the small side of the cache). The full partial products are
// computed once and then compacted, so a sharded fleet serves values
// bit-identical to a single Scorer's.
func NewShardedScorer(nm *core.NormalizedMatrix, w *la.Dense, head Head, shard, of int) (*ShardedScorer, error) {
	if nm == nil {
		return nil, errors.New("serve: nil normalized matrix")
	}
	if nm.IsTransposed() {
		return nil, errors.New("serve: scorer requires an untransposed normalized matrix (rows are prediction units)")
	}
	s, wCol, err := newScorer(nm, w, head, shard, of)
	if err != nil {
		return nil, err
	}
	s.nm = nm
	s.gen = s.computeGeneration(nm.S(), nm.Rs(), wCol)
	return s, nil
}

// Shard reports this scorer's slice index (0 for a full scorer).
func (s *Scorer) Shard() int { return s.shard }

// Of reports the fleet width the slice was cut for (1 for a full scorer).
func (s *Scorer) Of() int { return s.of }

// CacheRows reports how many entity-side partial entries this scorer
// holds — the sliced footprint a fleet memory audit sums.
func (s *Scorer) CacheRows() int { return len(s.current().sw) }

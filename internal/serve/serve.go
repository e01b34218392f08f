// Package serve turns the paper's training-time rewrite rules into a
// serving-time optimization: a concurrent, batched scoring service over a
// normalized feature store.
//
// For a PK-FK normalized matrix T = [S, K·R] and a trained weight vector
// w = [wS; wR], the prediction margin factorizes as
//
//	T·w = S·wS + K·(R·wR)
//
// (§3.3.3 of the paper, specialised to a vector operand). The attribute-table
// partial products R_i·w_{R_i} depend only on the model, not on the request,
// so a Scorer precomputes them once per weight vector. Each subsequent
// prediction is then a dS-wide entity dot product (itself precomputed per
// entity tuple) plus one cached-partial gather per attribute table — O(q)
// work per row instead of O(dS + Σ dR_i), which on the paper's
// high-feature-ratio shapes (dR ≫ dS, Fig. 3) is an order of magnitude
// cheaper than rerunning the factorized multiply.
//
// One Scorer type serves every case: linear and logistic heads, dense and
// CSR base tables, PK-FK, star, and M:N schemas. It owns either every row
// or one hash slice of a fleet (NewShardedScorer), and reads either an
// immutable core.NormalizedMatrix or — through an epoch subscription that
// patches its cache inside each commit — a versioned epoch.Store
// (NewEpochScorer). ShardedScorer and EpochScorer are aliases of Scorer.
// The Router spreads batches over a fleet of them, and the Batcher
// coalesces concurrent single-row callers into shared gather passes
// executed on a bounded worker pool.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/la"
)

// Head selects the link function applied to the raw margin T·w.
type Head int

const (
	// Linear serves the raw margin (regression).
	Linear Head = iota
	// Logistic serves σ(margin), matching ml.PredictLogistic.
	Logistic
)

// String names the link function for logs and error messages.
func (h Head) String() string {
	switch h {
	case Linear:
		return "linear"
	case Logistic:
		return "logistic"
	default:
		return fmt.Sprintf("Head(%d)", int(h))
	}
}

// Errors reported by the scoring service.
var (
	// ErrRowRange is returned when a requested row id is out of bounds.
	ErrRowRange = errors.New("serve: row id out of range")
	// ErrBatcherClosed is returned by Batcher.Score once Close has begun:
	// the request was not admitted and never will be. It is the documented
	// fast-fail sentinel — Score never blocks on a closed batcher.
	ErrBatcherClosed = errors.New("serve: batcher closed")
	// ErrClosed is the historical alias of ErrBatcherClosed (same value,
	// so errors.Is and == both keep working).
	ErrClosed = ErrBatcherClosed
	// ErrOverloaded is returned by Batcher.Score when the admission queue
	// is full: the request was rejected immediately instead of queueing
	// without bound. Callers should shed load or retry with backoff.
	ErrOverloaded = errors.New("serve: batcher overloaded")
	// ErrNotOwned is returned by a sharded Scorer asked for a row outside
	// its hash slice; the Router never routes such a request.
	ErrNotOwned = errors.New("serve: row not owned by this shard replica")
	// ErrOutputLen is returned by ScoreBatchInto when len(out) != len(ids).
	ErrOutputLen = errors.New("serve: output slice length does not match ids")
)

// Scorer answers prediction requests over a normalized feature store using
// cached partial products. It is safe for concurrent use.
//
// Ownership: a Scorer serves slice shard of `of` (Shard, Of), owning the
// rows with id ≡ shard (mod of). NewScorer and NewEpochScorer build the
// full slice (0 of 1). A sharded scorer stores the entity-side partial
// S·wS only for its owned rows — compacted at local index id/of — unless
// the schema is M:N, where that cache is indexed by entity tuple and is
// kept whole.
//
// Source: the cache is built from an immutable core.NormalizedMatrix, or
// from a versioned epoch.Store the scorer subscribes to; commits then
// patch the cache per changed row inside Store.Commit, so when Commit
// returns the scorer already serves the new epoch.
//
// Version semantics: the cache is one immutable generation (weights,
// partials, epoch), replaced copy-on-write. Every request — a single row,
// an explicit batch, or a coalesced Batcher batch — reads the generation
// exactly once, before its first row is scored, so all of its rows observe
// one weight version and one epoch, never a mix, even under a storm of
// UpdateWeights calls and commits.
type Scorer struct {
	head      Head
	rows      int // logical rows of T, fleet-wide
	cols      int // feature width d
	shard, of int
	sliced    bool // sw compacted to owned rows (si = id/of)

	// Static join structure, hoisted once at construction (neither source
	// ever changes it), so the gather path allocates nothing per call.
	isAssign []int32
	kAssign  [][]int32

	// Exactly one source is set.
	nm    *core.NormalizedMatrix
	store *epoch.Store

	mu    sync.RWMutex
	gen   *generation
	early []*epoch.Commit // commits that landed before the first generation
	stats PatchStats
}

// generation is one immutable (weights, epoch) cache. Updates build a new
// generation and swap the pointer; requests read it once.
type generation struct {
	w       *la.Dense   // d×1 weight snapshot
	sw      []float64   // entity partial S·wS (owned rows when sliced); nil when dS = 0
	parts   [][]float64 // per attribute-table partial R_t·w_{R_t}
	version epoch.Version
}

// joinShape is the frozen join structure both sources expose.
type joinShape interface {
	Rows() int
	Cols() int
	IS() *la.Indicator
	Ks() []*la.Indicator
}

// NewScorer builds a scorer for the normalized matrix nm (the feature
// store), weight vector w, and link head. w may be d×1 or its transpose
// 1×d, where d = nm.Cols(); it is copied, so later mutation by the caller
// does not affect the scorer. nm must be untransposed: predictions are per
// logical row of T.
func NewScorer(nm *core.NormalizedMatrix, w *la.Dense, head Head) (*Scorer, error) {
	return NewShardedScorer(nm, w, head, 0, 1)
}

// newScorer validates what every constructor shares — head, ownership,
// weight shape — and hoists the join structure. It returns the scorer
// without a generation, plus the d×1 weight column to build one from.
func newScorer(src joinShape, w *la.Dense, head Head, shard, of int) (*Scorer, *la.Dense, error) {
	if head != Linear && head != Logistic {
		return nil, nil, fmt.Errorf("serve: unknown head %d", int(head))
	}
	if of < 1 || shard < 0 || shard >= of {
		return nil, nil, fmt.Errorf("serve: shard %d of %d out of range", shard, of)
	}
	wCol, err := asWeightColumn(w, src.Cols())
	if err != nil {
		return nil, nil, err
	}
	s := &Scorer{head: head, rows: src.Rows(), cols: src.Cols(), shard: shard, of: of}
	if is := src.IS(); is != nil {
		s.isAssign = is.Assignments()
	}
	s.kAssign = make([][]int32, len(src.Ks()))
	for t, k := range src.Ks() {
		s.kAssign[t] = k.Assignments()
	}
	s.sliced = s.isAssign == nil && of > 1
	return s, wCol, nil
}

// asWeightColumn validates w against the feature width d and returns a d×1
// copy, accepting the transposed 1×d layout too.
func asWeightColumn(w *la.Dense, d int) (*la.Dense, error) {
	if w == nil {
		return nil, errors.New("serve: nil weight vector")
	}
	switch {
	case w.Cols() == 1 && w.Rows() == d:
		return w.Clone(), nil
	case w.Rows() == 1 && w.Cols() == d:
		return w.TDense(), nil
	default:
		return nil, fmt.Errorf("serve: weight shape %dx%d incompatible with %d features", w.Rows(), w.Cols(), d)
	}
}

// computeGeneration evaluates the partial products for a d×1 weight
// column over base tables S (nil when dS = 0) and Rs: sw[i] = (S·wS)[i]
// over entity tuples, compacted to the owned slice when sliced, and
// parts[t][j] = (R_t·w_{R_t})[j] over attribute tuples. Construction and
// UpdateWeights of both sources build through it, so every fleet member
// holds bit-identical partials.
func (s *Scorer) computeGeneration(S la.Mat, Rs []la.Mat, wCol *la.Dense) *generation {
	g := &generation{w: wCol, parts: make([][]float64, len(Rs))}
	off := 0
	if S != nil {
		dS := S.Cols()
		sw := S.Mul(wCol.SliceRowsDense(0, dS)).Data()
		if s.sliced {
			g.sw = make([]float64, 0, (len(sw)-s.shard+s.of-1)/s.of)
			for j := s.shard; j < len(sw); j += s.of {
				g.sw = append(g.sw, sw[j])
			}
		} else {
			g.sw = append([]float64(nil), sw...)
		}
		off = dS
	}
	for t, r := range Rs {
		dR := r.Cols()
		g.parts[t] = append([]float64(nil), r.Mul(wCol.SliceRowsDense(off, off+dR)).Data()...)
		off += dR
	}
	return g
}

// UpdateWeights atomically replaces the model, recomputing the cached
// partials. Requests in flight during the swap finish on whichever
// generation they read at start; no request ever mixes versions.
//
// Over an immutable store the partials are computed outside the lock, so
// scoring stalls only for the pointer swap. Over an epoch store they are
// computed under the write lock at the then-current epoch — scoring
// stalls for the O(nnz) recompute, meant for the rare retrain hand-off —
// and a commit that publishes meanwhile is either already included or
// patched in by the subscription right after.
func (s *Scorer) UpdateWeights(w *la.Dense) error {
	wCol, err := asWeightColumn(w, s.cols)
	if err != nil {
		return err
	}
	if s.store == nil {
		g := s.computeGeneration(s.nm.S(), s.nm.Rs(), wCol)
		s.mu.Lock()
		s.gen = g
		s.mu.Unlock()
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.store.Pin()
	defer snap.Release()
	s.gen = s.snapshotGeneration(snap, wCol)
	return nil
}

// current reads the generation a request scores under.
func (s *Scorer) current() *generation {
	s.mu.RLock()
	g := s.gen
	s.mu.RUnlock()
	return g
}

// Weights returns a copy of the current d×1 weight vector.
func (s *Scorer) Weights() *la.Dense { return s.current().w.Clone() }

// Rows reports the number of servable rows (logical rows of T). For a
// sharded scorer this is the fleet-wide count: ownership is a routing
// concern, not a shape change.
func (s *Scorer) Rows() int { return s.rows }

// Head reports the configured link function.
func (s *Scorer) Head() Head { return s.head }

// ScoreRow serves a single prediction for logical row id. Ids outside
// [0, Rows()) fail with ErrRowRange; rows of another slice fail with
// ErrNotOwned.
func (s *Scorer) ScoreRow(id int) (float64, error) {
	if !s.Owns(id) {
		return 0, s.rowError(id)
	}
	// Read the generation inline: current() does not inline, and the
	// single-row path is latency-bound.
	s.mu.RLock()
	g := s.gen
	s.mu.RUnlock()
	return s.score(id, g), nil
}

// ScoreBatch serves predictions for a batch of logical row ids, sharing one
// generation — read once, before the first row — and fanning the gather
// across cores for large batches.
func (s *Scorer) ScoreBatch(ids []int) ([]float64, error) {
	out := make([]float64, len(ids))
	if err := s.ScoreBatchInto(ids, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ScoreBatchInto is the allocation-free form of ScoreBatch: scores are
// written into the caller-owned out slice (len(out) must equal
// len(ids)). Ids outside [0, Rows()) fail with ErrRowRange; rows of
// another slice fail with ErrNotOwned. The steady-state path performs
// zero heap allocations — pinned by BenchmarkRouterScore and the
// allocation-audit tests.
func (s *Scorer) ScoreBatchInto(ids []int, out []float64) error {
	if len(out) != len(ids) {
		return fmt.Errorf("%w: %d for %d ids", ErrOutputLen, len(out), len(ids))
	}
	for _, id := range ids {
		if !s.Owns(id) {
			return s.rowError(id)
		}
	}
	s.gather(ids, out, s.current())
	return nil
}

// ScoreAll serves every owned row in ascending order under one
// generation — all of T for a full scorer, the cached equivalent of
// ml.PredictLinear / ml.PredictLogistic over the whole store.
func (s *Scorer) ScoreAll() []float64 {
	out := make([]float64, (s.rows-s.shard+s.of-1)/s.of)
	s.gather(nil, out, s.current())
	return out
}

// Owns reports whether row id is in range and belongs to this scorer's
// slice.
func (s *Scorer) Owns(id int) bool {
	return id >= 0 && id < s.rows && (s.of == 1 || id%s.of == s.shard)
}

// rowError explains why Owns(id) is false; it is kept off the hot path.
func (s *Scorer) rowError(id int) error {
	if id < 0 || id >= s.rows {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrRowRange, id, s.rows)
	}
	return fmt.Errorf("%w: row %d belongs to shard %d, this is shard %d of %d", ErrNotOwned, id, id%s.of, s.shard, s.of)
}

// gather scores a batch under one generation, fanning wide batches across
// cores. ids == nil means every owned row in order.
func (s *Scorer) gather(ids []int, out []float64, g *generation) {
	// Rough per-row cost: one add per table plus the head evaluation.
	work := len(out) * (len(g.parts) + 8)
	if la.ParallelChunks(len(out), work) <= 1 {
		// Serial fast path, called directly: passing a closure to
		// ParallelRows would heap-allocate it even when the loop runs
		// inline, and the steady-state request path must stay zero-alloc.
		s.gatherRange(0, len(out), ids, out, g)
		return
	}
	la.ParallelRows(len(out), work, func(lo, hi int) {
		s.gatherRange(lo, hi, ids, out, g)
	})
}

// gatherRange scores rows [lo, hi) of the batch.
func (s *Scorer) gatherRange(lo, hi int, ids []int, out []float64, g *generation) {
	for i := lo; i < hi; i++ {
		if ids != nil {
			out[i] = s.score(ids[i], g)
		} else {
			out[i] = s.score(s.shard+i*s.of, g)
		}
	}
}

// score gathers one row from generation g: the entity partial (routed
// through isAssign for M:N schemas, or through the shard stride when
// sliced) plus one attribute partial per table, through the head. It is
// the only gather kernel, so every scoring path is bit-identical by
// construction.
func (s *Scorer) score(id int, g *generation) float64 {
	m := 0.0
	if g.sw != nil {
		si := id
		if s.isAssign != nil {
			si = int(s.isAssign[id])
		} else if s.sliced {
			si = id / s.of
		}
		m = g.sw[si]
	}
	for t, a := range s.kAssign {
		m += g.parts[t][a[id]]
	}
	if s.head == Logistic {
		m = 1 / (1 + math.Exp(-m))
	}
	return m
}

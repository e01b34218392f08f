package chunk

import (
	"fmt"

	"repro/internal/la"
)

// IntVector is an on-disk chunked int32 column (the foreign-key column of
// the out-of-core entity table). It reuses the float64 chunk files,
// storing keys as exact small floats. The key range observed at build
// time is kept so table constructors can validate references without
// re-reading the chunks.
type IntVector struct {
	m              *Matrix
	minKey, maxKey int32
}

// BuildIntVector spills a foreign-key column chunk-aligned with rows.
func BuildIntVector(store *Store, keys []int32, chunkRows int) (*IntVector, error) {
	m, err := Build(store, len(keys), 1, chunkRows, func(lo, hi int, dst *la.Dense) {
		for i := lo; i < hi; i++ {
			dst.Set(i-lo, 0, float64(keys[i]))
		}
	})
	if err != nil {
		return nil, err
	}
	v := &IntVector{m: m}
	for i, k := range keys {
		if i == 0 || k < v.minKey {
			v.minKey = k
		}
		if i == 0 || k > v.maxKey {
			v.maxKey = k
		}
	}
	return v, nil
}

// Rows reports the number of keys.
func (v *IntVector) Rows() int { return v.m.rows }

// Keys reads chunk ci and returns its first-row offset plus the decoded
// keys. It is safe to call concurrently (each call reads its own chunk),
// which lets parallel pipelines over an aligned Matrix fetch the matching
// key chunk from inside their workers.
func (v *IntVector) Keys(ci int) (lo int, keys []int32, err error) {
	lo, c, err := v.m.Chunk(ci)
	if err != nil {
		return 0, nil, err
	}
	return lo, keysOf(c), nil
}

// keysOf decodes one key chunk, stored as exact small floats.
func keysOf(c la.Mat) []int32 {
	keys := make([]int32, c.Rows())
	for i, f := range c.Dense().Data() {
		keys[i] = int32(f)
	}
	return keys
}

// Free releases the vector's chunk files.
func (v *IntVector) Free() error { return v.m.Free() }

// AttrTable is one arm of an out-of-core star schema: the foreign-key
// column lives in chunked storage aligned with the entity table, while the
// (much smaller) attribute feature matrix R stays in memory — dense or CSR,
// anything implementing la.Mat.
type AttrTable struct {
	FK *IntVector
	R  la.Mat
}

// NormalizedTable is the out-of-core normalized matrix for a star-schema
// PK-FK join at ORE scale, T = [S, K_1·R_1, ..., K_q·R_q]: the entity
// table S (dense or sparse, chunked) and each foreign-key column live on
// disk, the attribute tables stay in memory. A single attribute table
// (q = 1) is the paper's plain PK-FK join; for M:N joins (Table 10) see
// MNTable.
type NormalizedTable struct {
	S     *Matrix // nS×dS on disk, dense or CSR chunks
	Attrs []AttrTable
}

// NewNormalizedTable builds the single-attribute-table (plain PK-FK) star.
func NewNormalizedTable(s *Matrix, fk *IntVector, r *la.Dense) (*NormalizedTable, error) {
	return NewStarTable(s, []AttrTable{{FK: fk, R: r}})
}

// NewStarTable validates chunk alignment between S and every foreign-key
// column.
func NewStarTable(s *Matrix, attrs []AttrTable) (*NormalizedTable, error) {
	if s == nil {
		return nil, fmt.Errorf("chunk: star table needs an entity table")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("chunk: star table needs at least one attribute table")
	}
	for i, a := range attrs {
		if a.FK == nil || a.R == nil {
			return nil, fmt.Errorf("chunk: attribute table %d is missing FK or R", i+1)
		}
		if a.FK.m.rows != s.Rows() {
			return nil, fmt.Errorf("chunk: S has %d rows but FK%d has %d", s.Rows(), i+1, a.FK.m.rows)
		}
		if a.FK.m.chunkRows != s.ChunkRows() {
			return nil, fmt.Errorf("chunk: S chunked by %d rows but FK%d by %d", s.ChunkRows(), i+1, a.FK.m.chunkRows)
		}
		// Reject out-of-range references here instead of index-panicking
		// on a pipeline worker mid-pass.
		if a.FK.m.rows > 0 && (a.FK.minKey < 0 || int(a.FK.maxKey) >= a.R.Rows()) {
			return nil, fmt.Errorf("chunk: FK%d keys span [%d,%d] but R%d has %d rows", i+1, a.FK.minKey, a.FK.maxKey, i+1, a.R.Rows())
		}
	}
	return &NormalizedTable{S: s, Attrs: attrs}, nil
}

// Rows reports the join output row count (= nS for a PK-FK join).
func (nt *NormalizedTable) Rows() int { return nt.S.Rows() }

// Cols reports the logical column count dS + Σ dRi of the joined table.
func (nt *NormalizedTable) Cols() int {
	d := nt.S.Cols()
	for _, a := range nt.Attrs {
		d += a.R.Cols()
	}
	return d
}

// NumTables reports the number of attribute tables q.
func (nt *NormalizedTable) NumTables() int { return len(nt.Attrs) }

// ColOffsets returns the starting logical column of each attribute part
// plus the total width: offsets[0] = dS, offsets[t] the start of R_t's
// block, offsets[q] = Cols().
func (nt *NormalizedTable) ColOffsets() []int {
	offs := make([]int, len(nt.Attrs)+1)
	offs[0] = nt.S.Cols()
	for t, a := range nt.Attrs {
		offs[t+1] = offs[t] + a.R.Cols()
	}
	return offs
}

// ChunkKeys reads the aligned key chunk ci of every attribute table. Like
// IntVector.Keys it is safe to call from concurrent pipeline workers.
func (nt *NormalizedTable) ChunkKeys(ci int) ([][]int32, error) {
	keys := make([][]int32, len(nt.Attrs))
	for t, a := range nt.Attrs {
		_, ks, err := a.FK.Keys(ci)
		if err != nil {
			return nil, err
		}
		keys[t] = ks
	}
	return keys, nil
}

// Free releases the on-disk base table and key columns.
func (nt *NormalizedTable) Free() error {
	err := nt.S.Free()
	for _, a := range nt.Attrs {
		if e := a.FK.Free(); err == nil {
			err = e
		}
	}
	return err
}

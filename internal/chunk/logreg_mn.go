package chunk

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// MNTable is the out-of-core normalized matrix for an M:N join (Table 10):
// base tables S and R are chunked on disk, and the join is represented by
// the IS/IR row-selector columns, also chunked, with |T'| rows each. The
// materialized alternative would store |T'|·(dS+dR) cells — the quantity
// that explodes as the join-attribute domain shrinks.
type MNTable struct {
	S  *Matrix    // nS×dS
	R  *Matrix    // nR×dR
	IS *IntVector // |T'|×1
	IR *IntVector // |T'|×1
}

// NewMNTable validates the selector alignment and key ranges.
func NewMNTable(s, r *Matrix, is, ir *IntVector) (*MNTable, error) {
	if is.m.rows != ir.m.rows {
		return nil, fmt.Errorf("chunk: IS has %d rows but IR has %d", is.m.rows, ir.m.rows)
	}
	if is.m.chunkRows != ir.m.chunkRows {
		return nil, fmt.Errorf("chunk: IS chunked by %d rows but IR by %d", is.m.chunkRows, ir.m.chunkRows)
	}
	if is.m.rows > 0 {
		if is.minKey < 0 || int(is.maxKey) >= s.rows {
			return nil, fmt.Errorf("chunk: IS keys span [%d,%d] but S has %d rows", is.minKey, is.maxKey, s.rows)
		}
		if ir.minKey < 0 || int(ir.maxKey) >= r.rows {
			return nil, fmt.Errorf("chunk: IR keys span [%d,%d] but R has %d rows", ir.minKey, ir.maxKey, r.rows)
		}
	}
	return &MNTable{S: s, R: r, IS: is, IR: ir}, nil
}

// OutputRows reports |T'|, the join output cardinality.
func (t *MNTable) OutputRows() int { return t.IS.m.rows }

// Free releases every on-disk component of the table.
func (t *MNTable) Free() error {
	err := t.S.Free()
	for _, e := range []error{t.R.Free(), t.IS.Free(), t.IR.Free()} {
		if err == nil {
			err = e
		}
	}
	return err
}

// partialProducts streams base table b and writes b·w into the
// pre-allocated dst vector (disjoint row ranges, so workers write
// directly); bytes read are tallied on the committer.
func partialProducts(ex Exec, b *Matrix, w *la.Dense, dst []float64, bytesRead *int64) error {
	return b.Stream(ex, func(ci, lo int, c la.Mat) (any, error) {
		copy(dst[lo:lo+c.Rows()], c.Mul(w).Data())
		return EncodedBytes(c), nil
	}, func(ci int, v any) error {
		*bytesRead += v.(int64)
		return nil
	})
}

// gradPass streams base table b and accumulates bᵀ·coef chunk-by-chunk in
// order.
func gradPass(ex Exec, b *Matrix, coef []float64, grad *la.Dense, bytesRead *int64) error {
	type part struct {
		grad  *la.Dense
		bytes int64
	}
	return b.Stream(ex, func(ci, lo int, c la.Mat) (any, error) {
		return part{grad: c.TMul(la.ColVector(coef[lo : lo+c.Rows()])), bytes: EncodedBytes(c)}, nil
	}, func(ci int, v any) error {
		pt := v.(part)
		grad.AddInPlace(pt.grad)
		*bytesRead += pt.bytes
		return nil
	})
}

// mnSelPart is one selector chunk's contribution: the per-output-tuple
// coefficients plus both key columns for the ordered scatter.
type mnSelPart struct {
	is, ir []int32
	coef   []float64
	bytes  int64
}

// LogRegFactorizedMNExec runs factorized logistic regression over the
// out-of-core M:N join under the given execution. Per iteration it makes
// one pass over S and R to compute the partial inner products (nS- and
// nR-length vectors held in memory), one pass over the selector columns to
// form the per-output-tuple coefficients, and one more pass over S and R
// for the gradients — total I/O proportional to the base tables plus two
// key columns, never to |T'|·(dS+dR). Scatter-adds commit in chunk order,
// so results are identical for every Exec. The planner-driven entry point
// is plan.LogRegMN.
func LogRegFactorizedMNExec(ex Exec, t *MNTable, y *la.Dense, iters int, alpha float64) (*LogRegResult, error) {
	n := t.OutputRows()
	if y.Rows() != n || y.Cols() != 1 {
		return nil, fmt.Errorf("chunk: labels are %dx%d, want %dx1", y.Rows(), y.Cols(), n)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("chunk: iters must be positive")
	}
	dS, dR := t.S.cols, t.R.cols
	w := la.NewDense(dS+dR, 1)
	var bytesRead int64
	for it := 0; it < iters; it++ {
		wS := la.NewDenseData(dS, 1, w.Data()[:dS])
		wR := la.NewDenseData(dR, 1, w.Data()[dS:])
		// Pass 1: partial inner products for every base tuple.
		sw := make([]float64, t.S.rows)
		if err := partialProducts(ex, t.S, wS, sw, &bytesRead); err != nil {
			return nil, err
		}
		rw := make([]float64, t.R.rows)
		if err := partialProducts(ex, t.R, wR, rw, &bytesRead); err != nil {
			return nil, err
		}
		// Pass 2: stream the selectors, scatter coefficients per base row.
		cs := make([]float64, t.S.rows)
		cr := make([]float64, t.R.rows)
		err := t.IS.m.Stream(ex, func(ci, lo int, isChunk la.Mat) (any, error) {
			isKeys := keysOf(isChunk)
			_, irKeys, err := t.IR.Keys(ci)
			if err != nil {
				return nil, err
			}
			coef := make([]float64, len(isKeys))
			for i, si := range isKeys {
				inner := sw[si] + rw[irKeys[i]]
				coef[i] = y.At(lo+i, 0) / (1 + math.Exp(inner))
			}
			return mnSelPart{
				is:    isKeys,
				ir:    irKeys,
				coef:  coef,
				bytes: 2 * int64(len(isKeys)) * 8,
			}, nil
		}, func(ci int, v any) error {
			pt := v.(mnSelPart)
			for i, v := range pt.coef {
				cs[pt.is[i]] += v
				cr[pt.ir[i]] += v
			}
			bytesRead += pt.bytes
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Pass 3: gradients gradS = Sᵀ·cs, gradR = Rᵀ·cr.
		gradS := la.NewDense(dS, 1)
		if err := gradPass(ex, t.S, cs, gradS, &bytesRead); err != nil {
			return nil, err
		}
		gradR := la.NewDense(dR, 1)
		if err := gradPass(ex, t.R, cr, gradR, &bytesRead); err != nil {
			return nil, err
		}
		for j := 0; j < dS; j++ {
			w.Set(j, 0, w.At(j, 0)+alpha*gradS.At(j, 0))
		}
		for j := 0; j < dR; j++ {
			w.Set(dS+j, 0, w.At(dS+j, 0)+alpha*gradR.At(j, 0))
		}
	}
	return &LogRegResult{W: w, BytesRead: bytesRead}, nil
}

// MaterializeMN spills the joined table [IS·S, IR·R] to chunked storage —
// the baseline input for Table 10. It streams selector chunks and gathers
// base rows, so building it costs the full |T'|·(dS+dR) write. Chunks are
// gathered and written in parallel; a mid-stream failure removes every
// chunk written so far.
func MaterializeMN(store *Store, t *MNTable) (*Matrix, error) {
	sD, err := t.S.Dense()
	if err != nil {
		return nil, err
	}
	rD, err := t.R.Dense()
	if err != nil {
		return nil, err
	}
	dS, dR := sD.Cols(), rD.Cols()
	paths, err := store.alloc(t.IS.m.NumChunks())
	if err != nil {
		return nil, err
	}
	err = t.IS.m.Stream(Parallel(), func(ci, lo int, isChunk la.Mat) (any, error) {
		_, irKeys, err := t.IR.Keys(ci)
		if err != nil {
			return nil, err
		}
		buf := la.NewDense(isChunk.Rows(), dS+dR)
		for i, si := range keysOf(isChunk) {
			copy(buf.Row(i)[:dS], sD.Row(int(si)))
			copy(buf.Row(i)[dS:], rD.Row(int(irKeys[i])))
		}
		return nil, store.writeChunkFile(paths[ci], buf)
	}, nil)
	if err != nil {
		store.release(paths)
		return nil, err
	}
	return denseMatrix(store, t.OutputRows(), dS+dR, t.IS.m.chunkRows, paths), nil
}

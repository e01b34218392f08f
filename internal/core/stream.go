package core

import (
	"fmt"
	"math"

	"repro/internal/chunk"
	"repro/internal/la"
)

// Streamed factorized operators over out-of-core base tables. They apply
// the same rewrite rules as NormalizedMatrix — crossprod via Algorithm 2
// (with the §3.5 star-schema generalization), LMM/RMM via §3.3.3, DMM via
// appendix C — but the entity table S (a chunk.Matrix of dense or CSR
// chunks) and the foreign-key columns live in a chunk store, so
// per-iteration I/O is proportional to the base tables, never to
// the joined nS×(dS+ΣdRi) output. Every pass runs on the chunk package's
// parallel pipeline; reductions commit in chunk order, so results are
// deterministic for any Exec.

// StreamedCrossProd computes TᵀT for T = [S, K_1·R_1, ..., K_q·R_q] with
// the paper's efficient rewrite (Algorithm 2, star form) in a single pass
// over the chunked S and key columns. Per attribute table the pass
// scatter-adds K_tᵀS and the key counts; for every pair of attribute
// tables it scatter-adds the cross gather K_aᵀ(K_b·R_b), so the
// off-diagonal R_aᵀK_aᵀK_bR_b blocks never materialize an indicator
// product. The R-side blocks are assembled in memory afterwards.
func StreamedCrossProd(ex chunk.Exec, nt *chunk.NormalizedTable) (*la.Dense, error) {
	dS := nt.S.Cols()
	q := nt.NumTables()
	offs := nt.ColOffsets()
	d := nt.Cols()

	sts := la.NewDense(dS, dS)
	kts := make([]*la.Dense, q)    // K_tᵀS scatter-adds, nRt×dS
	counts := make([][]float64, q) // per-table key multiplicities
	for t, a := range nt.Attrs {
		kts[t] = la.NewDense(a.R.Rows(), dS)
		counts[t] = make([]float64, a.R.Rows())
	}
	// gab[a][b] (a<b) accumulates K_aᵀ(K_b·R_b): row ka_i gains R_b's row
	// kb_i for every joined tuple i.
	gab := make([][]*la.Dense, q)
	for a := 0; a < q; a++ {
		gab[a] = make([]*la.Dense, q)
		for b := a + 1; b < q; b++ {
			gab[a][b] = la.NewDense(nt.Attrs[a].R.Rows(), nt.Attrs[b].R.Cols())
		}
	}

	type part struct {
		cp   *la.Dense
		c    la.Mat
		keys [][]int32
	}
	err := nt.S.Stream(ex, func(ci, lo int, c la.Mat) (any, error) {
		keys, err := nt.ChunkKeys(ci)
		if err != nil {
			return nil, err
		}
		return part{cp: c.CrossProd(), c: c, keys: keys}, nil
	}, func(ci int, v any) error {
		p := v.(part)
		sts.AddInPlace(p.cp)
		for i := 0; i < p.c.Rows(); i++ {
			for t := range p.keys {
				rid := int(p.keys[t][i])
				counts[t][rid]++
				scatterRowInto(kts[t].Row(rid), p.c, i)
			}
			for a := 0; a < q; a++ {
				for b := a + 1; b < q; b++ {
					scatterRowInto(gab[a][b].Row(int(p.keys[a][i])), nt.Attrs[b].R, int(p.keys[b][i]))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := la.NewDense(d, d)
	placeBlock(out, sts, 0, 0)
	for t, a := range nt.Attrs {
		// Off-diagonal S block SᵀK_t·R_t = (R_tᵀ·(K_tᵀS))ᵀ.
		skr := a.R.TMul(kts[t]).TDense()
		placeBlock(out, skr, 0, offs[t])
		placeBlock(out, skr.TDense(), offs[t], 0)
		// Diagonal block crossprod(diag(counts)^½ · R_t).
		sq := make([]float64, len(counts[t]))
		for i, v := range counts[t] {
			sq[i] = math.Sqrt(v)
		}
		placeBlock(out, a.R.ScaleRows(sq).CrossProd(), offs[t], offs[t])
		// Cross-attribute blocks R_aᵀ·(K_aᵀK_b·R_b).
		for b := t + 1; b < q; b++ {
			blk := a.R.TMul(gab[t][b])
			placeBlock(out, blk, offs[t], offs[b])
			placeBlock(out, blk.TDense(), offs[b], offs[t])
		}
	}
	return out, nil
}

// StreamedMul computes T·x (LMM, §3.3.3) for an in-memory x, producing a
// chunked result: per chunk it is S_chunk·xS plus gathers of the
// precomputed R_t·xRt partials, so only the base table and key columns are
// read.
func StreamedMul(ex chunk.Exec, nt *chunk.NormalizedTable, x *la.Dense) (*chunk.Matrix, error) {
	dS := nt.S.Cols()
	if x.Rows() != nt.Cols() {
		return nil, fmt.Errorf("core: streamed Mul %dx%d · %dx%d", nt.Rows(), nt.Cols(), x.Rows(), x.Cols())
	}
	offs := nt.ColOffsets()
	xS := x.SliceRowsDense(0, dS)
	rx := make([]*la.Dense, nt.NumTables()) // nRt×k partials
	for t, a := range nt.Attrs {
		rx[t] = a.R.Mul(x.SliceRowsDense(offs[t], offs[t+1]))
	}
	return nt.S.StreamToMatrix(ex, x.Cols(), func(ci, lo int, c la.Mat) (*la.Dense, error) {
		keys, err := nt.ChunkKeys(ci)
		if err != nil {
			return nil, err
		}
		out := c.Mul(xS)
		for t := range keys {
			for i, rid := range keys[t] {
				dst := out.Row(i)
				for j, v := range rx[t].Row(int(rid)) {
					dst[j] += v
				}
			}
		}
		return out, nil
	})
}

// StreamedTMul computes Tᵀ·x (RMM on the transpose) for an in-memory x:
// the S block streams Sᵀ·x chunk by chunk, each R block scatter-adds x
// rows per join key and multiplies by R_tᵀ once at the end.
func StreamedTMul(ex chunk.Exec, nt *chunk.NormalizedTable, x *la.Dense) (*la.Dense, error) {
	if x.Rows() != nt.Rows() {
		return nil, fmt.Errorf("core: streamed TMul %dx%dᵀ · %dx%d", nt.Rows(), nt.Cols(), x.Rows(), x.Cols())
	}
	dS, k := nt.S.Cols(), x.Cols()
	offs := nt.ColOffsets()
	top := la.NewDense(dS, k)
	ktx := make([]*la.Dense, nt.NumTables()) // K_tᵀx scatter-adds
	for t, a := range nt.Attrs {
		ktx[t] = la.NewDense(a.R.Rows(), k)
	}

	type part struct {
		stx  *la.Dense
		keys [][]int32
		lo   int
	}
	err := nt.S.Stream(ex, func(ci, lo int, c la.Mat) (any, error) {
		keys, err := nt.ChunkKeys(ci)
		if err != nil {
			return nil, err
		}
		return part{stx: c.TMul(x.SliceRowsDense(lo, lo+c.Rows())), keys: keys, lo: lo}, nil
	}, func(ci int, v any) error {
		p := v.(part)
		top.AddInPlace(p.stx)
		for t := range p.keys {
			for i, rid := range p.keys[t] {
				dst := ktx[t].Row(int(rid))
				for j, xv := range x.Row(p.lo + i) {
					dst[j] += xv
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := la.NewDense(nt.Cols(), k)
	placeBlock(out, top, 0, 0)
	for t, a := range nt.Attrs {
		placeBlock(out, a.R.TMul(ktx[t]), offs[t], 0) // R_tᵀ·(K_tᵀx)
	}
	return out, nil
}

// StreamedMulNorm computes the DMM T·B for an out-of-core T and an
// in-memory normalized B (appendix C applied at ORE scale): B's
// materialization is only (dS+ΣdRi)×dB — the small side of the product —
// so it is formed once in memory while T streams factorized, and the
// chunked result costs I/O proportional to S plus the key columns, never
// to the joined output of either operand.
func StreamedMulNorm(ex chunk.Exec, nt *chunk.NormalizedTable, b *NormalizedMatrix) (*chunk.Matrix, error) {
	if nt.Cols() != b.Rows() {
		return nil, fmt.Errorf("core: streamed DMM %dx%d · %dx%d", nt.Rows(), nt.Cols(), b.Rows(), b.Cols())
	}
	return StreamedMul(ex, nt, b.Dense())
}

// scatterRowInto adds row i of src into dst, honoring sparsity.
func scatterRowInto(dst []float64, src la.Mat, i int) {
	switch t := src.(type) {
	case *la.Dense:
		for j, v := range t.Row(i) {
			dst[j] += v
		}
	case *la.CSR:
		idx, vals := t.RowNNZ(i)
		for k, j := range idx {
			dst[j] += vals[k]
		}
	default:
		for j := 0; j < src.Cols(); j++ {
			dst[j] += src.At(i, j)
		}
	}
}

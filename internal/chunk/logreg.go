package chunk

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// LogRegResult reports the fitted weights and observed I/O volume, the
// quantity that separates M from F at ORE scale.
type LogRegResult struct {
	W         *la.Dense
	BytesRead int64
}

// LogRegMaterializedExec runs the standard logistic regression
// (Algorithm 3) over any chunked materialized table — dense or CSR chunks
// — under the given execution, streaming every stored cell from disk each
// iteration: the ORE baseline of Table 9, and the sparse one-hot shapes
// of Table 6 when t holds CSR chunks. It is the star driver over a table
// with no attribute tables, whose arithmetic is then exactly Algorithm 3.
// The planner-driven entry point is plan.LogReg.
func LogRegMaterializedExec(ex Exec, t *Matrix, y *la.Dense, iters int, alpha float64) (*LogRegResult, error) {
	return LogRegFactorizedExec(ex, &NormalizedTable{S: t}, y, iters, alpha)
}

// starPart is one chunk's contribution to a factorized-GLM iteration: the
// S-side partial gradient plus the per-row coefficients and per-table keys
// needed for the (serial, ordered) R-side scatters.
type starPart struct {
	gradS *la.Dense
	keys  [][]int32
	coef  []float64
	bytes int64
}

// LogRegFactorizedExec runs the factorized logistic regression
// (Algorithm 4) over the out-of-core star under the given execution: per
// iteration it reads only the base table S (plus the key columns) from
// disk and computes the R-side partial products in memory — the
// Morpheus-on-ORE configuration, generalized to any number of attribute
// tables. Workers compute the S-side products; the R-side scatter-adds
// run in chunk order on the committer, keeping results identical for
// every Exec. The planner-driven entry point is plan.LogReg.
func LogRegFactorizedExec(ex Exec, nt *NormalizedTable, y *la.Dense, iters int, alpha float64) (*LogRegResult, error) {
	nS, dS := nt.S.Rows(), nt.S.Cols()
	offs := nt.ColOffsets()
	q := len(nt.Attrs)
	if y.Rows() != nS || y.Cols() != 1 {
		return nil, fmt.Errorf("chunk: labels are %dx%d, want %dx1", y.Rows(), y.Cols(), nS)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("chunk: iters must be positive")
	}
	w := la.NewDense(nt.Cols(), 1)
	var bytesRead int64
	for it := 0; it < iters; it++ {
		wS := la.NewDenseData(dS, 1, w.Data()[:dS])
		rw := make([]*la.Dense, q) // per-table partial inner products, in memory
		scatter := make([][]float64, q)
		for t, a := range nt.Attrs {
			rw[t] = a.R.Mul(la.NewDenseData(a.R.Cols(), 1, w.Data()[offs[t]:offs[t+1]]))
			scatter[t] = make([]float64, a.R.Rows())
		}
		gradS := la.NewDense(dS, 1)
		err := nt.S.Stream(ex, func(ci, lo int, c la.Mat) (any, error) {
			keys, err := nt.ChunkKeys(ci)
			if err != nil {
				return nil, err
			}
			sw := c.Mul(wS)
			coef := make([]float64, c.Rows())
			for i := range coef {
				inner := sw.At(i, 0)
				for t := range keys {
					inner += rw[t].At(int(keys[t][i]), 0)
				}
				coef[i] = y.At(lo+i, 0) / (1 + math.Exp(inner))
			}
			return starPart{
				gradS: c.TMul(la.ColVector(coef)),
				keys:  keys,
				coef:  coef,
				bytes: EncodedBytes(c) + int64(q)*int64(c.Rows())*8,
			}, nil
		}, func(ci int, v any) error {
			pt := v.(starPart)
			gradS.AddInPlace(pt.gradS)
			for t := range pt.keys {
				for i, rid := range pt.keys[t] {
					scatter[t][rid] += pt.coef[i]
				}
			}
			bytesRead += pt.bytes
			return nil
		})
		if err != nil {
			return nil, err
		}
		for j := 0; j < dS; j++ {
			w.Set(j, 0, w.At(j, 0)+alpha*gradS.At(j, 0))
		}
		for t, a := range nt.Attrs {
			gradR := a.R.TMul(la.ColVector(scatter[t])) // R_tᵀ·(K_tᵀp)
			for j := 0; j < a.R.Cols(); j++ {
				w.Set(offs[t]+j, 0, w.At(offs[t]+j, 0)+alpha*gradR.At(j, 0))
			}
		}
	}
	return &LogRegResult{W: w, BytesRead: bytesRead}, nil
}

package chunk

import (
	"fmt"
	"math/rand"

	"repro/internal/la"
)

// KMeansResult holds the fitted centroids, the chunked assignment column,
// and the observed I/O volume.
type KMeansResult struct {
	// Centroids is d×k, matching ml.KMeans.
	Centroids *la.Dense
	// Assign is the n×1 chunked cluster-id column, aligned with the input
	// table's chunking — the assignment vector itself stays out-of-core.
	Assign *Matrix
	// Objective is the final sum of squared distances to assigned
	// centroids.
	Objective float64
	// BytesRead tallies the chunk bytes streamed across all passes.
	BytesRead int64
}

// kmPart is one chunk's contribution to a k-means iteration: the partial
// centroid numerators Tᵀ·A and cluster counts.
type kmPart struct {
	sums   *la.Dense
	counts []float64
	bytes  int64
}

// nearestCentroids expands the pairwise squared distances ‖t_i‖² +
// ‖c_j‖² − 2·t_i·c_j of one chunk's rows to the centroids from the
// chunk's T·C product and calls fn with every row's argmin (ties toward
// the lowest cluster index, like ml.KMeans) and its distance. It is the
// one assignment step of the iterations and the final gather.
func nearestCentroids(ch la.Mat, c *la.Dense, cNorm []float64, fn func(i, best int, dist float64)) {
	tc := ch.Mul(c) // rows×k (LMM)
	dt := rowSquaredNorms(ch)
	for i := range dt {
		row := tc.Row(i)
		best, bestD := 0, dt[i]+cNorm[0]-2*row[0]
		for j := 1; j < len(cNorm); j++ {
			if dd := dt[i] + cNorm[j] - 2*row[j]; dd < bestD {
				best, bestD = j, dd
			}
		}
		fn(i, best, bestD)
	}
}

// kmeansAssignPartial computes one chunk's assignment partial for fixed
// centroids: the chunk's centroid numerators chunkᵀ·A and cluster counts,
// A the one-hot argmin matrix. It is the body of OpKMeansAssign, shared
// by the driver's workers and the chunkd worker so pushed-down iterations
// reduce bit-identically.
func kmeansAssignPartial(ch la.Mat, c *la.Dense, cNorm []float64) kmPart {
	a := la.NewDense(ch.Rows(), c.Cols())
	nearestCentroids(ch, c, cNorm, func(i, best int, _ float64) { a.Set(i, best, 1) })
	return kmPart{sums: ch.TMul(a), counts: a.ColSumsVec(), bytes: EncodedBytes(ch)}
}

// KMeansExec runs streamed k-means under the given execution. Each
// iteration is one pass over the chunks: workers expand the pairwise
// squared distances ‖t_i‖² + ‖c_j‖² − 2·t_i·c_j from a per-chunk T·C
// product, take the per-row argmin (ties toward the lowest cluster index,
// like ml.KMeans), and produce the chunk's centroid partials chunkᵀ·A; the
// committer reduces the partials in chunk order, so centroids are
// bit-identical for every Exec. Empty clusters keep their previous
// centroid. A final pass gathers the argmin per row into a chunked
// assignment column through the write-behind spiller and accumulates the
// objective, again in chunk order. The planner-driven entry point is
// plan.KMeans.
func KMeansExec(ex Exec, t *Matrix, k, iters int, seed int64) (*KMeansResult, error) {
	n, d := t.Rows(), t.Cols()
	if k <= 0 {
		return nil, fmt.Errorf("chunk: k must be positive, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("chunk: k=%d exceeds %d points", k, n)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("chunk: iters must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	c := la.NewDense(d, k)
	for i := range c.Data() {
		c.Data()[i] = rng.NormFloat64()
	}
	var bytesRead int64

	for it := 0; it < iters; it++ {
		sums := la.NewDense(d, k)
		counts := make([]float64, k)
		// The assignment pass is a registered op (the centroids travel in
		// the op params), so with ex.Pushdown each chunk's distance+argmin
		// expansion runs on the shard holding it.
		err := t.StreamOp(ex, OpKMeansAssign(c), func(ci int, v any) error {
			pt := v.(kmPart)
			sums.AddInPlace(pt.sums)
			for j, cv := range pt.counts {
				counts[j] += cv
			}
			bytesRead += pt.bytes
			return nil
		})
		if err != nil {
			return nil, err
		}
		for j := 0; j < k; j++ {
			if counts[j] == 0 {
				continue
			}
			for i := 0; i < d; i++ {
				c.Set(i, j, sums.At(i, j)/counts[j])
			}
		}
	}

	// Final pass: argmin gather into the chunked assignment column plus
	// the objective, committed in chunk order.
	cNorm := c.PowDense(2).ColSumsVec()
	sp, err := newOutputSpiller(t.Store(), t.NumChunks(), ex)
	if err != nil {
		return nil, err
	}
	type assignPart struct {
		obj   float64
		bytes int64
	}
	objective := 0.0
	err = t.Stream(ex, func(ci, lo int, ch la.Mat) (any, error) {
		out := la.NewDense(ch.Rows(), 1)
		obj := 0.0
		nearestCentroids(ch, c, cNorm, func(i, best int, dist float64) {
			out.Set(i, 0, float64(best))
			obj += dist
		})
		if err := sp.emit(ci, out); err != nil {
			return nil, err
		}
		return assignPart{obj: obj, bytes: EncodedBytes(ch)}, nil
	}, func(ci int, v any) error {
		pt := v.(assignPart)
		objective += pt.obj
		bytesRead += pt.bytes
		return nil
	})
	paths, err := sp.finish(err)
	if err != nil {
		return nil, err
	}
	assign := denseMatrix(t.Store(), n, 1, t.ChunkRows(), paths)
	return &KMeansResult{Centroids: c, Assign: assign, Objective: objective, BytesRead: bytesRead}, nil
}

// rowSquaredNorms returns the per-row sums of squares of one chunk (the
// point norms of the k-means distance expansion), with a sparse fast path.
func rowSquaredNorms(c la.Mat) []float64 {
	out := make([]float64, c.Rows())
	switch t := c.(type) {
	case *la.Dense:
		for i := range out {
			s := 0.0
			for _, v := range t.Row(i) {
				s += v * v
			}
			out[i] = s
		}
	case *la.CSR:
		for i := range out {
			_, vals := t.RowNNZ(i)
			s := 0.0
			for _, v := range vals {
				s += v * v
			}
			out[i] = s
		}
	default:
		for i := range out {
			s := 0.0
			for j := 0; j < c.Cols(); j++ {
				v := c.At(i, j)
				s += v * v
			}
			out[i] = s
		}
	}
	return out
}

package la

import "fmt"

// MatMul computes a·b for dense matrices with a cache-blocked, row-parallel
// kernel (the i-k-j loop order keeps the inner loop streaming over
// contiguous rows of b and the output).
func MatMul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("la: MatMul %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	work := a.rows * a.cols * b.cols
	parallelFor(a.rows, work, func(lo, hi int) {
		matMulRange(out, a, b, lo, hi)
	})
	return out
}

func matMulRange(out, a, b *Dense, lo, hi int) {
	n := b.cols
	if n == 1 {
		// Matrix-vector: one register accumulator per output element,
		// summing in the same k order (and with the same zero skip) as
		// the general kernel, so the result is bitwise identical.
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			bv := b.data[:len(arow)]
			s := 0.0
			for k, aik := range arow {
				if aik == 0 {
					continue
				}
				s += aik * bv[k]
			}
			out.data[i] = s
		}
		return
	}
	const kb = 256
	for k0 := 0; k0 < a.cols; k0 += kb {
		k1 := min(k0+kb, a.cols)
		for i := lo; i < hi; i++ {
			arow := a.Row(i)[k0:k1]
			orow := out.Row(i)
			bd := b.data[k0*n : k1*n]
			for k, aik := range arow {
				if aik == 0 {
					continue
				}
				axpy(orow, bd[k*n:(k+1)*n], aik)
			}
		}
	}
}

// axpy computes dst += alpha*src. It is kept small enough to inline: the
// skinny products (n = 1..10 columns) that dominate the GLM and k-means
// drivers call it once per non-zero, where a call frame costs more than
// the arithmetic.
func axpy(dst, src []float64, alpha float64) {
	src = src[:len(dst)]
	for i, s := range src {
		dst[i] += alpha * s
	}
}

// reduceRows runs body over `chunks` contiguous ranges of the rows [0,n),
// each accumulating into its own r×c partial, and sums the partials in
// chunk order. Merging in chunk order rather than goroutine completion
// order keeps the result deterministic for a fixed chunk count (that is,
// for a fixed GOMAXPROCS); with one chunk body writes the result directly.
func reduceRows(n, chunks, r, c int, body func(out *Dense, lo, hi int)) *Dense {
	if chunks <= 1 || n < 2 {
		out := NewDense(r, c)
		body(out, 0, n)
		return out
	}
	parts := make([]*Dense, chunks)
	parallelForChunked(n, chunks, func(ch, lo, hi int) {
		p := NewDense(r, c)
		body(p, lo, hi)
		parts[ch] = p
	})
	acc := parts[0]
	for _, p := range parts[1:] {
		if p != nil {
			acc.AddInPlace(p)
		}
	}
	return acc
}

// TMatMul computes aᵀ·b without materializing aᵀ. Parallelism is over rows
// of a with per-chunk partial accumulators (see reduceRows).
func TMatMul(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("la: TMatMul %dx%d ᵀ· %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	chunks := parallelChunks(a.rows, a.rows*a.cols*b.cols)
	return reduceRows(a.rows, chunks, a.cols, b.cols, func(out *Dense, lo, hi int) {
		tMatMulRange(out, a, b, lo, hi)
	})
}

func tMatMulRange(out, a, b *Dense, lo, hi int) {
	n := b.cols
	if n == 1 {
		// aᵀ·v: scatter the scalar b[r] along row r of a.
		for r := lo; r < hi; r++ {
			arow := a.Row(r)
			o := out.data[:len(arow)]
			bv := b.data[r]
			for j, av := range arow {
				if av == 0 {
					continue
				}
				o[j] += av * bv
			}
		}
		return
	}
	od := out.data[:a.cols*n]
	for r := lo; r < hi; r++ {
		brow := b.Row(r)
		for j, av := range a.Row(r) {
			if av == 0 {
				continue
			}
			axpy(od[j*n:(j+1)*n], brow, av)
		}
	}
}

// MatMulT computes a·bᵀ using dot products over rows of both operands.
func MatMulT(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("la: MatMulT %dx%d · %dx%dᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.rows)
	work := a.rows * a.cols * b.rows
	parallelFor(a.rows, work, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := 0; j < b.rows; j++ {
				orow[j] = dot(arow, b.Row(j))
			}
		}
	})
	return out
}

func dot(x, y []float64) float64 {
	s := 0.0
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s += x[i]*y[i] + x[i+1]*y[i+1] + x[i+2]*y[i+2] + x[i+3]*y[i+3]
	}
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// CrossProd computes mᵀm exploiting symmetry: only the upper triangle is
// accumulated, then mirrored. This is the dense building block used by the
// efficient factorized cross-product (Algorithm 2).
func (m *Dense) CrossProd() *Dense {
	d := m.cols
	chunks := parallelChunks(m.rows, m.rows*d*d/2)
	out := reduceRows(m.rows, chunks, d, d, func(out *Dense, lo, hi int) {
		crossRange(out, m, lo, hi)
	})
	mirrorLower(out)
	return out
}

func crossRange(out, m *Dense, lo, hi int) {
	d := m.cols
	for r := lo; r < hi; r++ {
		row := m.Row(r)
		for i, v := range row {
			if v == 0 {
				continue
			}
			axpy(out.data[i*d+i:(i+1)*d], row[i:], v)
		}
	}
}

func mirrorLower(s *Dense) {
	d := s.cols
	for i := 1; i < d; i++ {
		for j := 0; j < i; j++ {
			s.data[i*d+j] = s.data[j*d+i]
		}
	}
}

// Gram computes m·mᵀ.
func (m *Dense) Gram() *Dense { return MatMulT(m, m) }

// Ginv computes the Moore-Penrose pseudo-inverse; see ginv.go.
func (m *Dense) Ginv() *Dense { return Ginv(m) }

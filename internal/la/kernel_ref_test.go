package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Reference kernels: the package's products as they were written before
// the skinny-operand paths, around a 4-way unrolled, non-inlined axpy.
// The production kernels must reproduce them bit for bit (every output
// element sums the same terms in the same order, skipping the same zeros),
// except CSR.TMul, whose per-chunk partials are summed in chunk order.

func refAxpy(dst, src []float64, alpha float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

func refMatMul(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.cols)
	n := b.cols
	const kb = 256
	for k0 := 0; k0 < a.cols; k0 += kb {
		k1 := min(k0+kb, a.cols)
		for i := 0; i < a.rows; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for k := k0; k < k1; k++ {
				aik := arow[k]
				if aik == 0 {
					continue
				}
				refAxpy(orow, b.data[k*n:(k+1)*n], aik)
			}
		}
	}
	return out
}

// refTMatMul reproduces TMatMul's chunking: one partial per chunk of
// rows, summed in chunk order, so it is exact at any GOMAXPROCS.
func refTMatMul(a, b *Dense) *Dense {
	n := b.cols
	rng := func(out *Dense, lo, hi int) {
		for r := lo; r < hi; r++ {
			arow := a.Row(r)
			brow := b.data[r*n : (r+1)*n]
			for j, av := range arow {
				if av == 0 {
					continue
				}
				refAxpy(out.data[j*n:(j+1)*n], brow, av)
			}
		}
	}
	chunks := parallelChunks(a.rows, a.rows*a.cols*b.cols)
	if chunks == 1 {
		out := NewDense(a.cols, n)
		rng(out, 0, a.rows)
		return out
	}
	size := (a.rows + chunks - 1) / chunks
	var acc *Dense
	for lo := 0; lo < a.rows; lo += size {
		p := NewDense(a.cols, n)
		rng(p, lo, min(lo+size, a.rows))
		if acc == nil {
			acc = p
		} else {
			acc.AddInPlace(p)
		}
	}
	return acc
}

func refCSRMul(c *CSR, x *Dense) *Dense {
	out := NewDense(c.rows, x.cols)
	for i := 0; i < c.rows; i++ {
		idx, vs := c.RowNNZ(i)
		orow := out.Row(i)
		for k, j := range idx {
			refAxpy(orow, x.Row(int(j)), vs[k])
		}
	}
	return out
}

// refCSRTMul is the serial scatter CSR.TMul computes at one chunk.
func refCSRTMul(c *CSR, x *Dense) *Dense {
	out := NewDense(c.cols, x.cols)
	for i := 0; i < c.rows; i++ {
		idx, vs := c.RowNNZ(i)
		xrow := x.Row(i)
		for k, j := range idx {
			refAxpy(out.Row(int(j)), xrow, vs[k])
		}
	}
	return out
}

func refIndicatorTMul(k *Indicator, z *Dense) *Dense {
	out := NewDense(k.nCols, z.cols)
	for i, c := range k.rows {
		refAxpy(out.Row(int(c)), z.Row(i), 1)
	}
	return out
}

// sameBits reports the first element where got and want differ in their
// bit patterns (so -0 ≠ +0), except that any NaN matches any NaN: Go does
// not specify which operand's payload a NaN-producing add propagates, and
// the compiler is free to commute the operands.
func sameBits(got, want *Dense) error {
	if got.rows != want.rows || got.cols != want.cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	}
	for i, w := range want.data {
		if math.IsNaN(got.data[i]) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(got.data[i]) != math.Float64bits(w) {
			return fmt.Errorf("element %d = %v (%#x), want %v (%#x)",
				i, got.data[i], math.Float64bits(got.data[i]), w, math.Float64bits(w))
		}
	}
	return nil
}

// closeTo accepts a reordered float sum: finite elements within tol, and
// non-finite ones matching exactly in class (NaN, or the same infinity),
// which no summation order can change when no finite partial overflows.
func closeTo(got, want *Dense, tol float64) error {
	if got.rows != want.rows || got.cols != want.cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	}
	for i, w := range want.data {
		g := got.data[i]
		switch {
		case math.IsNaN(w) || math.IsNaN(g):
			if !math.IsNaN(w) || !math.IsNaN(g) {
				return fmt.Errorf("element %d = %v, want %v", i, g, w)
			}
		case math.IsInf(w, 0) || math.IsInf(g, 0):
			if g != w {
				return fmt.Errorf("element %d = %v, want %v", i, g, w)
			}
		case math.Abs(g-w) > tol:
			return fmt.Errorf("element %d = %v, want %v (|Δ| = %g)", i, g, w, math.Abs(g-w))
		}
	}
	return nil
}

// specialValue draws from a mix that pins down the zero-skip semantics:
// mostly normal values, 10% +0 and 5% -0, and NaN or ±Inf with
// probability nonFinite (0·Inf = NaN, so a kernel that stopped skipping a
// zero, or started skipping one, shows). Callers keep nonFinite near
// 1/(2·inner dimension) so that most output elements see at most one
// non-finite term and the rest stay finite.
func specialValue(rng *rand.Rand, nonFinite float64) float64 {
	switch p := rng.Float64(); {
	case p < 0.10:
		return 0
	case p < 0.15:
		return math.Copysign(0, -1)
	case p < 0.15+nonFinite:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	default:
		return rng.NormFloat64()
	}
}

func specialDense(rng *rand.Rand, rows, cols int, nonFinite float64) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = specialValue(rng, nonFinite)
	}
	return m
}

// specialCSR builds a CSR directly (the builder would drop zeros) with
// every fourth row empty and stored values drawn by specialValue.
func specialCSR(rng *rand.Rand, rows, cols int, fill, nonFinite float64) *CSR {
	indptr := make([]int, rows+1)
	var indices []int32
	var vals []float64
	for i := 0; i < rows; i++ {
		if i%4 != 3 {
			for j := 0; j < cols; j++ {
				if rng.Float64() < fill {
					indices = append(indices, int32(j))
					vals = append(vals, specialValue(rng, nonFinite))
				}
			}
		}
		indptr[i+1] = len(indices)
	}
	return NewCSR(rows, cols, indptr, indices, vals)
}

var skinnyWidths = []int{1, 2, 3, 4, 5, 8, 10, 17, 64}

// skinnyShapes holds a small shape that stays serial, one wider than the
// GEMM k-block, and one whose work crosses the parallel threshold for
// every width.
var skinnyShapes = []struct{ rows, cols int }{{37, 29}, {23, 300}, {1500, 100}}

func TestSkinnyKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var finite, total int
	for _, sh := range skinnyShapes {
		// Inner dimensions: cols for a·right and c·right, rows for the
		// transposed products.
		byCols, byRows := 0.5/float64(sh.cols), 0.5/float64(sh.rows)
		a := specialDense(rng, sh.rows, sh.cols, math.Min(byCols, byRows))
		c := specialCSR(rng, sh.rows, sh.cols, 0.3, math.Min(byCols, byRows))
		k := randIndicator(rng, sh.rows, sh.cols)
		for _, n := range skinnyWidths {
			name := fmt.Sprintf("%dx%d/n%d", sh.rows, sh.cols, n)
			right := specialDense(rng, sh.cols, n, byCols) // a·right, c·right
			left := specialDense(rng, sh.rows, n, byRows)  // aᵀ·left, cᵀ·left, Kᵀ·left
			for _, tc := range []struct {
				op        string
				got, want *Dense
			}{
				{"MatMul", MatMul(a, right), refMatMul(a, right)},
				{"TMatMul", TMatMul(a, left), refTMatMul(a, left)},
				{"CSR.Mul", c.Mul(right), refCSRMul(c, right)},
				{"CSR.TMul/1chunk", c.tMul(left, 1), refCSRTMul(c, left)},
				{"Indicator.TMul", k.TMul(left), refIndicatorTMul(k, left)},
			} {
				if err := sameBits(tc.got, tc.want); err != nil {
					t.Errorf("%s %s: %v", tc.op, name, err)
				}
				for _, v := range tc.want.data {
					if !math.IsNaN(v) && !math.IsInf(v, 0) {
						finite++
					}
				}
				total += len(tc.want.data)
			}
		}
	}
	// The mix must leave both kinds of output common, or the special
	// values would either swamp every sum or never meet a zero.
	if share := float64(finite) / float64(total); share < 0.3 || share > 0.95 {
		t.Fatalf("finite share of reference outputs %.2f, want within [0.3, 0.95]", share)
	}
}

// TestCSRTMulChunked: the row-parallel CSR.TMul stays within 1e-12 of the
// serial scatter at any chunk count (including more chunks than rows),
// and repeated calls at a fixed chunk count agree bit for bit. Run under
// -cpu 1,2,4 to cover the GOMAXPROCS-driven chunking of TMul itself.
func TestCSRTMulChunked(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sh := range skinnyShapes {
		c := specialCSR(rng, sh.rows, sh.cols, 0.3, 0.5/float64(sh.rows))
		for _, n := range skinnyWidths {
			x := specialDense(rng, sh.rows, n, 0.5/float64(sh.rows))
			want := refCSRTMul(c, x)
			for _, chunks := range []int{2, 3, 7, sh.rows + 3} {
				got := c.tMul(x, chunks)
				if err := closeTo(got, want, 1e-12); err != nil {
					t.Errorf("%dx%d n%d chunks %d: %v", sh.rows, sh.cols, n, chunks, err)
				}
				if err := sameBits(c.tMul(x, chunks), got); err != nil {
					t.Errorf("%dx%d n%d chunks %d: not deterministic: %v", sh.rows, sh.cols, n, chunks, err)
				}
			}
			got := c.TMul(x)
			if err := closeTo(got, want, 1e-12); err != nil {
				t.Errorf("TMul %dx%d n%d: %v", sh.rows, sh.cols, n, err)
			}
			for rep := 0; rep < 3; rep++ {
				if err := sameBits(c.TMul(x), got); err != nil {
					t.Errorf("TMul %dx%d n%d: repeat %d differs: %v", sh.rows, sh.cols, n, rep, err)
				}
			}
		}
	}
}

// FuzzSkinnyKernels drives every skinny-operand kernel over random shapes
// and widths against the reference loops. Optional special values (NaN,
// ±Inf, -0) are written into the right-hand operands, since randCSR and
// randDense draw only finite normals.
func FuzzSkinnyKernels(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(5), uint8(1), uint8(40), []byte{})
	f.Add(int64(2), uint8(64), uint8(33), uint8(3), uint8(10), []byte{0, 1, 2})
	f.Add(int64(3), uint8(1), uint8(1), uint8(10), uint8(255), []byte{3, 3})
	f.Add(int64(4), uint8(0), uint8(4), uint8(2), uint8(90), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, n, fill uint8, specials []byte) {
		if cols == 0 || n == 0 || n > 64 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		r, d, w := int(rows), int(cols), int(n)
		c, a := randCSR(rng, r, d, float64(fill)/255)
		right := randDense(rng, d, w)
		left := randDense(rng, r, w)
		k := randIndicator(rng, r, d)
		special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
		for i, b := range specials {
			v := special[int(b)%len(special)]
			right.data[(i*7+int(b))%len(right.data)] = v
			if len(left.data) > 0 {
				left.data[(i*5+int(b))%len(left.data)] = v
			}
		}
		for _, tc := range []struct {
			op        string
			got, want *Dense
		}{
			{"MatMul", MatMul(a, right), refMatMul(a, right)},
			{"TMatMul", TMatMul(a, left), refTMatMul(a, left)},
			{"CSR.Mul", c.Mul(right), refCSRMul(c, right)},
			{"CSR.TMul/1chunk", c.tMul(left, 1), refCSRTMul(c, left)},
			{"Indicator.TMul", k.TMul(left), refIndicatorTMul(k, left)},
		} {
			if err := sameBits(tc.got, tc.want); err != nil {
				t.Fatalf("%s %dx%d n%d: %v", tc.op, r, d, w, err)
			}
		}
		if err := closeTo(c.tMul(left, 3), refCSRTMul(c, left), 1e-12); err != nil {
			t.Fatalf("CSR.TMul/3chunks %dx%d n%d: %v", r, d, w, err)
		}
	})
}

package la

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel-level microbenchmarks for the substrate: these are the building
// blocks whose relative costs drive every M-vs-F comparison upstairs.

func benchDense(n, d int) *Dense {
	rng := rand.New(rand.NewSource(1))
	return randDense(rng, n, d)
}

// BenchmarkGEMM covers square products and the skinny ones the ML drivers
// issue: T·C for k-means centroids (the chunked k-means chunk shape,
// 1500×100·100×8) and T·w for a GLM (n = 1).
func BenchmarkGEMM(b *testing.B) {
	for _, sh := range []struct {
		name    string
		m, k, n int
	}{
		{"n64", 64, 64, 64},
		{"n256", 256, 256, 256},
		{"1500x100x8", 1500, 100, 8},
		{"1500x100x1", 1500, 100, 1},
	} {
		a := benchDense(sh.m, sh.k)
		c := benchDense(sh.k, sh.n)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportMetric(float64(2*sh.m*sh.k*sh.n), "flops/op")
			for i := 0; i < b.N; i++ {
				MatMul(a, c)
			}
		})
	}
}

func BenchmarkTMatMul(b *testing.B) {
	a := benchDense(4096, 64)
	x := benchDense(4096, 8)
	for i := 0; i < b.N; i++ {
		TMatMul(a, x)
	}
}

func BenchmarkCrossProdDense(b *testing.B) {
	a := benchDense(8192, 64)
	for i := 0; i < b.N; i++ {
		a.CrossProd()
	}
}

// BenchmarkCSRMul and BenchmarkCSRTMul time the sparse products at the
// widths the GLM (n = 1: T·w, Tᵀ·p), k-means (n = 10: T·C) and a small
// block (n = 8) use.
func BenchmarkCSRMul(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c, _ := randCSR(rng, 8192, 512, 0.02)
	for _, n := range []int{1, 8, 10} {
		x := benchDense(512, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportMetric(float64(2*c.NNZ()*n), "flops/op")
			for i := 0; i < b.N; i++ {
				c.Mul(x)
			}
		})
	}
}

func BenchmarkCSRTMul(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c, _ := randCSR(rng, 8192, 512, 0.02)
	for _, n := range []int{1, 10} {
		x := benchDense(8192, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportMetric(float64(2*c.NNZ()*n), "flops/op")
			for i := 0; i < b.N; i++ {
				c.TMul(x)
			}
		})
	}
}

func BenchmarkCSRCrossProd(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c, _ := randCSR(rng, 8192, 256, 0.02)
	for i := 0; i < b.N; i++ {
		c.CrossProd()
	}
}

func BenchmarkIndicatorGather(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	k := randIndicator(rng, 100_000, 1000)
	z := benchDense(1000, 32)
	for i := 0; i < b.N; i++ {
		k.Mul(z)
	}
}

// BenchmarkIndicatorScatter times Kᵀ·Z, one add per row and column of Z.
func BenchmarkIndicatorScatter(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	k := randIndicator(rng, 100_000, 1000)
	for _, n := range []int{1, 8} {
		z := benchDense(100_000, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportMetric(float64(100_000*n), "flops/op")
			for i := 0; i < b.N; i++ {
				k.TMul(z)
			}
		})
	}
}

func BenchmarkTMulIndicator(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	k := randIndicator(rng, 200_000, 2000)
	j := randIndicator(rng, 200_000, 2000)
	for i := 0; i < b.N; i++ {
		k.TMulIndicator(j)
	}
}

func BenchmarkSymGinv(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := randDense(rng, 200, 80)
	a := m.CrossProd()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SymGinv(a)
	}
}

func BenchmarkCholeskySolve(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m := randDense(rng, 200, 80)
	a := m.CrossProd().Add(Eye(80))
	rhs := randDense(rng, 80, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSPD(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

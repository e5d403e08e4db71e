package linalg

import (
	"math"

	"mlmd/internal/par"
)

// gemmRowGrain returns the row-chunk size for sharding an m×n×k GEMM over
// the worker pool: aim for ~1 MFLOP per chunk so dynamic claiming stays
// cheap relative to the work while small problems collapse to one inline
// chunk. The grain is even so the 2×2 register tiles see full row pairs
// (an odd grain would push every chunk's last row down the slow
// single-row path).
func gemmRowGrain(n, k, flopsPerMAC int) int {
	work := flopsPerMAC * n * k
	if work <= 0 {
		return 2
	}
	g := 1048576 / work
	if g < 2 {
		g = 2
	}
	return g &^ 1
}

// GEMM32 computes C = alpha*A*B + beta*C for float32 row-major matrices,
// cache-blocked, 2×2 register-tiled, and sharded over the shared worker
// pool by row blocks. A is m×k, B is k×n. The neural-network inference path
// of XS-NNQMD runs on this kernel (the paper's Allegro uses FP32
// activations). Results are bitwise independent of the worker count: rows
// are disjoint and chunk boundaries depend only on the problem shape.
//
//mlmd:hotpath
func GEMM32(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	if len(a) < (m-1)*lda+k && m > 0 {
		panic("linalg: A too short")
	}
	if len(b) < (k-1)*ldb+n && k > 0 {
		panic("linalg: B too short")
	}
	if len(c) < (m-1)*ldc+n && m > 0 {
		panic("linalg: C too short")
	}
	par.For(m, gemmRowGrain(n, k, 2), func(lo, hi, _ int) {
		gemm32Range(lo, hi, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	})
	AddFlops(GEMMFlops(m, n, k))
}

// gemm32Range scales rows [i0,i1) of C by beta and accumulates
// alpha*A*B into them through the shared register-tile kernel (a single
// full-width j-pass: float32 rows are half the footprint of complex ones,
// so no extra j-blocking is needed at these sizes).
//
//mlmd:hotpath
func gemm32Range(i0, i1, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	scaleRows(i0, i1, n, beta, c, ldc)
	getA := func(i, p int) float32 { return alpha * a[i*lda+p] }
	const bs = 64
	for ii := i0; ii < i1; ii += bs {
		iMax := min(ii+bs, i1)
		for pp := 0; pp < k; pp += bs {
			pMax := min(pp+bs, k)
			tileNoTransB(n, getA, ii, iMax, pp, pMax, n, b, ldb, c, ldc)
		}
	}
}

// GEMM64 computes C = alpha*A*B + beta*C for float64 row-major matrices,
// cache-blocked and sharded over the shared worker pool by row blocks.
//
//mlmd:hotpath
func GEMM64(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	par.For(m, gemmRowGrain(n, k, 2), func(lo, hi, _ int) {
		gemm64Range(lo, hi, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	})
	AddFlops(GEMMFlops(m, n, k))
}

//mlmd:hotpath
func gemm64Range(i0, i1, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := i0; i < i1; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else if beta != 1 {
			for j := range row {
				row[j] *= beta
			}
		}
	}
	const bs = 64
	for ii := i0; ii < i1; ii += bs {
		iMax := min(ii+bs, i1)
		for pp := 0; pp < k; pp += bs {
			pMax := min(pp+bs, k)
			for i := ii; i < iMax; i++ {
				crow := c[i*ldc : i*ldc+n]
				for p := pp; p < pMax; p++ {
					av := alpha * a[i*lda+p]
					if av == 0 {
						continue
					}
					brow := b[p*ldb : p*ldb+n]
					for j, bv := range brow {
						crow[j] += av * bv
					}
				}
			}
		}
	}
}

// MatVec64 computes y = A x for a dense row-major m×n matrix, sharded over
// the worker pool by rows.
//
//mlmd:hotpath
func MatVec64(m, n int, a []float64, lda int, x, y []float64) {
	grain := 1
	if n > 0 {
		if grain = 16384 / n; grain < 1 {
			grain = 1
		}
	}
	par.For(m, grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			row := a[i*lda : i*lda+n]
			var sum float64
			for j, v := range row {
				sum += v * x[j]
			}
			y[i] = sum
		}
	})
	AddFlops(2 * uint64(m) * uint64(n))
}

// Dot64 returns the dot product of two equal-length vectors.
//
//mlmd:hotpath
func Dot64(x, y []float64) float64 {
	var sum float64
	for i := range x {
		sum += x[i] * y[i]
	}
	return sum
}

// Norm2 returns the Euclidean norm of x.
//
//mlmd:hotpath
func Norm2(x []float64) float64 {
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Axpy64 computes y += alpha*x.
//
//mlmd:hotpath
func Axpy64(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

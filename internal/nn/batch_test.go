package nn

import (
	"math"
	"math/rand"
	"testing"

	"mlmd/internal/precision"
)

// perRowReference runs the per-row tape path over a rows×in input block,
// returning outputs (rows×outDim) and input gradients (rows×in) for the
// given per-row cotangents.
func perRowReference(m *MLP, x []float64, rows int, gOut []float64) (outs, grads []float64) {
	in := m.Sizes[0]
	outDim := m.Sizes[len(m.Sizes)-1]
	outs = make([]float64, rows*outDim)
	grads = make([]float64, rows*in)
	var t Tape
	g := make([]float64, in)
	for r := 0; r < rows; r++ {
		m.ForwardTapeInto(x[r*in:(r+1)*in], &t)
		copy(outs[r*outDim:(r+1)*outDim], t.Outputs())
		m.BackwardInto(&t, gOut[r*outDim:(r+1)*outDim], nil, g)
		copy(grads[r*in:(r+1)*in], g)
	}
	return outs, grads
}

// assertBitsEqual fails if any element of got differs bitwise from want.
func assertBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v (bits %x) != %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBatchBitwiseMatchesPerRow is the nn-level half of the PR 7
// equivalence contract: the blocked GEMM forward/backward reproduces the
// per-row tape path bitwise over a matrix of shapes, activations and row
// counts, including non-scalar outputs and non-unit cotangents.
func TestBatchBitwiseMatchesPerRow(t *testing.T) {
	shapes := [][]int{{3, 1}, {4, 5, 1}, {16, 16, 16, 1}, {7, 11, 2}, {1, 1, 1}}
	acts := []Activation{Tanh, SiLU, Linear}
	rowCounts := []int{1, 5, 64}
	rng := rand.New(rand.NewSource(42))
	for si, sizes := range shapes {
		for _, act := range acts {
			m, err := NewMLP(sizes, act, int64(1000+si))
			if err != nil {
				t.Fatal(err)
			}
			in := sizes[0]
			outDim := sizes[len(sizes)-1]
			for _, rows := range rowCounts {
				x := make([]float64, rows*in)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				// Exercise exact-zero inputs (the GEMM skip-zero path).
				if rows*in > 2 {
					x[0], x[rows*in/2] = 0, 0
				}
				gOut := make([]float64, rows*outDim)
				for i := range gOut {
					gOut[i] = rng.NormFloat64()
				}
				refOut, refGrad := perRowReference(m, x, rows, gOut)
				var bt BatchTape
				m.ForwardBatchInto(x, rows, &bt)
				grad := make([]float64, rows*in)
				m.BackwardBatch(&bt, gOut, grad)
				assertBitsEqual(t, "outputs", bt.Outputs()[:rows*outDim], refOut)
				assertBitsEqual(t, "input gradients", grad, refGrad)
			}
		}
	}
}

// TestBatchInputGatherPath checks the zero-copy gather entry point:
// writing rows directly into BatchInput and calling ForwardBatch matches
// ForwardBatchInto.
func TestBatchInputGatherPath(t *testing.T) {
	m, err := NewMLP([]int{6, 8, 1}, SiLU, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	const rows = 9
	x := make([]float64, rows*6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var a, b BatchTape
	m.ForwardBatchInto(x, rows, &a)
	copy(m.BatchInput(&b, rows), x)
	m.ForwardBatch(&b)
	assertBitsEqual(t, "outputs", b.Outputs()[:rows], a.Outputs()[:rows])
}

// TestBatchGradFiniteDifference validates the blocked backward pass against
// central finite differences of the blocked forward pass at float64.
func TestBatchGradFiniteDifference(t *testing.T) {
	m, err := NewMLP([]int{5, 12, 12, 1}, SiLU, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	const rows = 4
	x := make([]float64, rows*5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var bt BatchTape
	m.ForwardBatchInto(x, rows, &bt)
	gOut := make([]float64, rows)
	for i := range gOut {
		gOut[i] = 1
	}
	grad := make([]float64, rows*5)
	m.BackwardBatch(&bt, gOut, grad)
	const h = 1e-6
	var fd BatchTape
	for k := range x {
		orig := x[k]
		x[k] = orig + h
		m.ForwardBatchInto(x, rows, &fd)
		ep := fd.Out(k / 5)
		x[k] = orig - h
		m.ForwardBatchInto(x, rows, &fd)
		em := fd.Out(k / 5)
		x[k] = orig
		want := (ep - em) / (2 * h)
		if diff := math.Abs(grad[k] - want); diff > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("grad[%d] = %g, finite difference %g (diff %g)", k, grad[k], want, diff)
		}
	}
}

// TestBatchTapeReuseAllocs pins the 0-alloc contract of the blocked path: a
// warmed BatchTape (and cotangent/gradient buffers) makes forward+backward
// allocation-free.
func TestBatchTapeReuseAllocs(t *testing.T) {
	m, err := NewMLP([]int{8, 16, 16, 1}, SiLU, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const rows = 32
	x := make([]float64, rows*8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	gOut := make([]float64, rows)
	for i := range gOut {
		gOut[i] = 1
	}
	grad := make([]float64, rows*8)
	var bt BatchTape
	m.ForwardBatchInto(x, rows, &bt) // size the buffers
	m.BackwardBatch(&bt, gOut, grad)
	allocs := testing.AllocsPerRun(50, func() {
		m.ForwardBatchInto(x, rows, &bt)
		m.BackwardBatch(&bt, gOut, grad)
	})
	if allocs != 0 {
		t.Fatalf("blocked forward+backward allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestMixedBatchTracksFloat64 bounds the mixed-precision path against the
// float64 reference: FP32 and the BF16x3 split ladder must track the exact
// outputs and input gradients to single-precision-level relative error.
func TestMixedBatchTracksFloat64(t *testing.T) {
	m, err := NewMLP([]int{8, 16, 16, 1}, SiLU, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	const rows = 24
	x := make([]float64, rows*8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	gOut := make([]float64, rows)
	for i := range gOut {
		gOut[i] = 1
	}
	refOut, refGrad := perRowReference(m, x, rows, gOut)
	for _, mode := range []precision.Mode{precision.ModeFP32, precision.ModeBF16x3} {
		var mt MixedBatch
		m.ForwardBatchMixed(mode, x, rows, &mt)
		grad := make([]float64, rows*8)
		m.BackwardBatchMixed(mode, &mt, grad)
		for r := 0; r < rows; r++ {
			if diff := math.Abs(mt.Out(r) - refOut[r]); diff > 1e-4*(1+math.Abs(refOut[r])) {
				t.Fatalf("%v out[%d] = %g, float64 %g", mode, r, mt.Out(r), refOut[r])
			}
		}
		var num, den float64
		for i := range grad {
			d := grad[i] - refGrad[i]
			num += d * d
			den += refGrad[i] * refGrad[i]
		}
		if rel := math.Sqrt(num / den); rel > 1e-4 {
			t.Fatalf("%v input-gradient relative error %g, want <= 1e-4", mode, rel)
		}
	}
}

// FuzzBatchedMLP cross-checks three paths on fuzzed shapes, weights and
// inputs, bitwise: the scalar reference, the per-row tapes, and the blocked
// kernels. Weights and inputs are derived from the fuzz bytes as small
// dyadic rationals, which keeps them finite and excludes the
// out-of-contract −0 weight case.
func FuzzBatchedMLP(f *testing.F) {
	f.Add([]byte{2, 3, 1, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 1, 2, 2, 200, 100, 0, 0, 0, 50, 25, 12, 255, 254, 253, 1, 2, 3})
	f.Add([]byte{1, 1, 1, 0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		next := func(k int) byte { b := data[k%len(data)]; return b }
		nLayers := 2 + int(next(0))%3 // 2..4 sizes entries
		sizes := make([]int, nLayers)
		for i := range sizes {
			sizes[i] = 1 + int(next(1+i))%8
		}
		act := Activation(int(next(nLayers+1)) % 3)
		rows := 1 + int(next(nLayers+2))%5
		m, err := NewMLP(sizes, act, 1)
		if err != nil {
			t.Skip()
		}
		// Overwrite weights/biases from the corpus: v = int8/16, so exact
		// zeros occur (exercising the GEMM skip-zero path) but −0 cannot.
		k := nLayers + 3
		fill := func(dst []float64) {
			for i := range dst {
				dst[i] = float64(int8(next(k))) / 16
				k++
			}
		}
		for l := range m.W {
			fill(m.W[l])
			fill(m.B[l])
		}
		in := sizes[0]
		outDim := sizes[len(sizes)-1]
		x := make([]float64, rows*in)
		fill(x)
		gOut := make([]float64, rows*outDim)
		fill(gOut)
		refOut, refGrad := perRowReference(m, x, rows, gOut)
		scalarOut, scalarGrad := scalarReference(m, x, rows, gOut)
		for i := range refOut {
			if math.Float64bits(refOut[i]) != math.Float64bits(scalarOut[i]) {
				t.Fatalf("sizes %v act %v rows %d: per-row output[%d] %v != scalar %v", sizes, act, rows, i, refOut[i], scalarOut[i])
			}
		}
		for i := range refGrad {
			if math.Float64bits(refGrad[i]) != math.Float64bits(scalarGrad[i]) {
				t.Fatalf("sizes %v act %v rows %d: per-row grad[%d] %v != scalar %v", sizes, act, rows, i, refGrad[i], scalarGrad[i])
			}
		}
		var bt BatchTape
		m.ForwardBatchInto(x, rows, &bt)
		grad := make([]float64, rows*in)
		m.BackwardBatch(&bt, gOut, grad)
		for i := range refOut {
			if math.Float64bits(bt.Outputs()[i]) != math.Float64bits(refOut[i]) {
				t.Fatalf("sizes %v act %v rows %d: output[%d] %v != %v", sizes, act, rows, i, bt.Outputs()[i], refOut[i])
			}
		}
		for i := range refGrad {
			if math.Float64bits(grad[i]) != math.Float64bits(refGrad[i]) {
				t.Fatalf("sizes %v act %v rows %d: grad[%d] %v != %v", sizes, act, rows, i, grad[i], refGrad[i])
			}
		}
	})
}

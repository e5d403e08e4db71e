package nn

import (
	"math/rand"
	"testing"
)

// refTape is the tape of the scalar reference: every layer's input and
// pre-activation, kept so the backward pass re-evaluates act'.
type refTape struct {
	inputs, pre [][]float64
	out         []float64
}

// refForward is the one-row-at-a-time forward pass the blocked per-row
// kernels must reproduce: each output neuron is one dot product starting
// from its bias and adding row[i]*x[i] in ascending i.
func refForward(m *MLP, x []float64) *refTape {
	t := &refTape{}
	cur := append([]float64(nil), x...)
	for l := range m.W {
		in, out := m.Sizes[l], m.Sizes[l+1]
		pre := make([]float64, out)
		res := make([]float64, out)
		for o := 0; o < out; o++ {
			sum := m.B[l][o]
			row := m.W[l][o*in : (o+1)*in]
			for i, v := range cur {
				sum += row[i] * v
			}
			pre[o] = sum
			if l == len(m.W)-1 {
				res[o] = sum
			} else {
				y, _ := actFn(m.Act, sum)
				res[o] = y
			}
		}
		t.inputs = append(t.inputs, cur)
		t.pre = append(t.pre, pre)
		cur = res
	}
	t.out = cur
	return t
}

// refBackward is the scalar backward pass: act' recomputed from the stored
// pre-activation, weight gradients accumulated into grads (if non-nil), and
// Wᵀδ formed one row of W per pass over the input gradient.
func refBackward(m *MLP, t *refTape, gOut []float64, grads *Grads) []float64 {
	delta := append([]float64(nil), gOut...)
	for l := len(m.W) - 1; l >= 0; l-- {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if l < len(m.W)-1 {
			for o := 0; o < out; o++ {
				_, d := actFn(m.Act, t.pre[l][o])
				delta[o] *= d
			}
		}
		if grads != nil {
			for o := 0; o < out; o++ {
				gw := grads.W[l][o*in : (o+1)*in]
				d := delta[o]
				for i := range gw {
					gw[i] += d * t.inputs[l][i]
				}
				grads.B[l][o] += d
			}
		}
		next := make([]float64, in)
		for o := 0; o < out; o++ {
			row := m.W[l][o*in : (o+1)*in]
			d := delta[o]
			for i := range row {
				next[i] += d * row[i]
			}
		}
		delta = next
	}
	return delta
}

// scalarReference runs refForward/refBackward over a rows×in input block
// with per-row cotangents, like perRowReference does for the tapes.
func scalarReference(m *MLP, x []float64, rows int, gOut []float64) (outs, grads []float64) {
	in := m.Sizes[0]
	outDim := m.Sizes[len(m.Sizes)-1]
	for r := 0; r < rows; r++ {
		t := refForward(m, x[r*in:(r+1)*in])
		outs = append(outs, t.out...)
		grads = append(grads, refBackward(m, t, gOut[r*outDim:(r+1)*outDim], nil)...)
	}
	return outs, grads
}

// TestTapeBitwiseMatchesScalarReference is the oracle of the per-row
// kernels: ForwardTapeInto/BackwardInto (row-blocked dot products, taped
// activation derivatives) and Forward reproduce the scalar reference
// bitwise — outputs, input gradients, and accumulated weight gradients —
// on widths that are and are not multiples of the four-row block, with one
// reused Tape across rows.
func TestTapeBitwiseMatchesScalarReference(t *testing.T) {
	shapes := [][]int{{1, 1}, {3, 5, 1}, {7, 9, 6, 2}, {4, 8, 4}, {30, 96, 96, 1}}
	rng := rand.New(rand.NewSource(21))
	for si, sizes := range shapes {
		for _, act := range []Activation{Tanh, SiLU, Linear} {
			m, err := NewMLP(sizes, act, int64(50+si))
			if err != nil {
				t.Fatal(err)
			}
			for l := range m.B {
				for o := range m.B[l] {
					m.B[l][o] = 0.1 * rng.NormFloat64()
				}
			}
			in, outDim := sizes[0], sizes[len(sizes)-1]
			var tape Tape
			got, want := NewGrads(m), NewGrads(m)
			dst := make([]float64, in)
			for row := 0; row < 4; row++ {
				x := make([]float64, in)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				x[row%in] = 0
				gOut := make([]float64, outDim)
				for i := range gOut {
					gOut[i] = rng.NormFloat64()
				}
				ref := refForward(m, x)
				m.ForwardTapeInto(x, &tape)
				assertBitsEqual(t, "tape outputs", tape.Outputs(), ref.out)
				assertBitsEqual(t, "Forward outputs", m.Forward(x), ref.out)
				// grads nil, then the training path with accumulation.
				refGrad := refBackward(m, ref, gOut, nil)
				assertBitsEqual(t, "input gradients", m.BackwardInto(&tape, gOut, nil, dst), refGrad)
				refBackward(m, ref, gOut, want)
				assertBitsEqual(t, "input gradients (grads)", m.BackwardInto(&tape, gOut, got, dst), refGrad)
				for l := range want.W {
					assertBitsEqual(t, "weight gradients", got.W[l], want.W[l])
					assertBitsEqual(t, "bias gradients", got.B[l], want.B[l])
				}
			}
		}
	}
}

// allegroNet returns the [30,96,96,1] SiLU network of a 3-species,
// 5-radial Allegro model and one input row for it.
func allegroNet(tb testing.TB) (*MLP, []float64) {
	m, err := NewMLP([]int{30, 96, 96, 1}, SiLU, 3)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return m, x
}

// TestTapeReuseAllocs pins the 0-alloc contract of the per-row path: a
// warmed Tape and gradient buffer make ForwardTapeInto+BackwardInto
// allocation-free.
func TestTapeReuseAllocs(t *testing.T) {
	m, x := allegroNet(t)
	gOut, dst := []float64{1}, make([]float64, len(x))
	var tape Tape
	m.ForwardTapeInto(x, &tape) // size the buffers
	m.BackwardInto(&tape, gOut, nil, dst)
	allocs := testing.AllocsPerRun(50, func() {
		m.ForwardTapeInto(x, &tape)
		m.BackwardInto(&tape, gOut, nil, dst)
	})
	if allocs != 0 {
		t.Fatalf("per-row forward+backward allocates %.1f/op in steady state, want 0", allocs)
	}
}

// BenchmarkTapeForwardBackward times one per-atom inference (forward plus
// input-gradient backward) on allegroNet's shape.
func BenchmarkTapeForwardBackward(b *testing.B) {
	m, x := allegroNet(b)
	gOut, dst := []float64{1}, make([]float64, len(x))
	var tape Tape
	m.ForwardTapeInto(x, &tape) // size the buffers
	m.BackwardInto(&tape, gOut, nil, dst)
	b.ReportAllocs()
	for b.Loop() {
		m.ForwardTapeInto(x, &tape)
		m.BackwardInto(&tape, gOut, nil, dst)
	}
}

// Package nn is the from-scratch neural-network substrate of the XS-NNQMD
// module: dense multilayer perceptrons with manual backpropagation (both
// weight gradients for training and input gradients for analytic forces),
// the Adam optimizer, and sharpness-aware minimization (SAM) — the
// Allegro-Legato robustness technique of the paper (Sec. V.A.6).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects the nonlinearity between layers.
type Activation int

const (
	// Tanh is the classic saturating activation.
	Tanh Activation = iota
	// SiLU is x·sigmoid(x) (a.k.a. swish), used by modern force fields.
	SiLU
	// Linear applies no nonlinearity (output layers).
	Linear
)

func actFn(a Activation, x float64) (y, dy float64) {
	switch a {
	case Tanh:
		y = math.Tanh(x)
		return y, 1 - y*y
	case SiLU:
		s := 1 / (1 + math.Exp(-x))
		y = x * s
		return y, s + x*s*(1-s)
	default:
		return x, 1
	}
}

// MLP is a fully connected network with one activation on every hidden
// layer and a linear output.
type MLP struct {
	Sizes []int // e.g. [in, h1, h2, out]
	Act   Activation
	// W[l] is Sizes[l+1]×Sizes[l] row-major; B[l] has length Sizes[l+1].
	W [][]float64
	B [][]float64
}

// NewMLP builds an MLP with Glorot-scaled random weights.
func NewMLP(sizes []int, act Activation, seed int64) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: need at least input and output sizes, got %v", sizes)
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("nn: layer size %d must be >= 1", s)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{Sizes: append([]int(nil), sizes...), Act: act}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		scale := math.Sqrt(2.0 / float64(in+out))
		for i := range w {
			w[i] = scale * rng.NormFloat64()
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
	}
	return m, nil
}

// NumWeights returns the total number of trainable parameters.
func (m *MLP) NumWeights() int {
	n := 0
	for l := range m.W {
		n += len(m.W[l]) + len(m.B[l])
	}
	return n
}

// Forward evaluates the network on x, returning the output vector (a fresh
// slice; the arithmetic is ForwardTapeInto's).
func (m *MLP) Forward(x []float64) []float64 {
	return m.ForwardTape(x).out
}

// Tape holds the per-layer activations of one forward pass for backprop.
// A Tape is reusable: ForwardTapeInto records over the previous pass's
// buffers, so steady-state inference (e.g. the per-atom evaluations of a
// sharded Allegro run) allocates nothing.
type Tape struct {
	inputs [][]float64 // inputs[l] is the input to layer l
	// dact[l] holds act'(pre-activation) of hidden layer l, computed with
	// the activation itself so the backward pass does not re-evaluate the
	// nonlinearity (one exp per SiLU unit per forward+backward). The
	// linear output layer's entry is empty.
	dact [][]float64
	out  []float64
	// d0/d1 are the ping-pong delta buffers of BackwardInto.
	d0, d1 []float64
}

// Out returns the first output of the taped forward pass (scalar-output
// networks).
func (t *Tape) Out() float64 { return t.out[0] }

// Outputs returns the full output vector of the taped forward pass.
func (t *Tape) Outputs() []float64 { return t.out }

// ForwardTape evaluates the network recording a fresh tape.
func (m *MLP) ForwardTape(x []float64) *Tape {
	return m.ForwardTapeInto(x, &Tape{})
}

// ForwardTapeInto evaluates the network recording onto t, reusing its
// buffers from a previous pass (they are sized on first use, so a zero
// Tape works). The arithmetic is identical to ForwardTape — only the
// buffer lifetimes differ — and t is returned for call chaining.
//
//mlmd:hotpath
func (m *MLP) ForwardTapeInto(x []float64, t *Tape) *Tape {
	if len(x) != m.Sizes[0] {
		panic(fmt.Sprintf("nn: layer 0 input length %d != %d", len(x), m.Sizes[0]))
	}
	layers := len(m.W)
	if len(t.inputs) != layers {
		t.inputs = make([][]float64, layers)
		t.dact = make([][]float64, layers)
	}
	for l := 0; l < layers; l++ {
		if in := m.Sizes[l]; len(t.inputs[l]) != in {
			t.inputs[l] = make([]float64, in)
		}
		if out := m.Sizes[l+1]; l < layers-1 && len(t.dact[l]) != out {
			t.dact[l] = make([]float64, out)
		}
	}
	if n := m.Sizes[layers]; len(t.out) != n {
		t.out = make([]float64, n)
	}
	copy(t.inputs[0], x)
	for l := 0; l < layers-1; l++ {
		dst := t.inputs[l+1]
		m.affineInto(l, t.inputs[l], dst)
		dact := t.dact[l][:len(dst)]
		for o, v := range dst {
			dst[o], dact[o] = actFn(m.Act, v)
		}
	}
	m.affineInto(layers-1, t.inputs[layers-1], t.out)
	return t
}

// affineInto writes layer l's pre-activations W[l]·x + B[l] into dst.
// Rows are swept four at a time over x with one independent accumulator
// each, so the four add chains overlap instead of stalling on one another;
// every output still starts from its bias and adds row[i]*x[i] in ascending
// i, so the bits are those of a one-row-at-a-time dot product. Leftover
// rows take the one-row loop.
//
//mlmd:hotpath
func (m *MLP) affineInto(l int, x, dst []float64) {
	in, out := m.Sizes[l], m.Sizes[l+1]
	if len(x) != in {
		panic(fmt.Sprintf("nn: layer %d input length %d != %d", l, len(x), in))
	}
	w, b := m.W[l], m.B[l]
	o := 0
	for ; o+4 <= out; o += 4 {
		r0 := w[o*in:][:len(x)]
		r1 := w[(o+1)*in:][:len(x)]
		r2 := w[(o+2)*in:][:len(x)]
		r3 := w[(o+3)*in:][:len(x)]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, v := range x {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < out; o++ {
		row := w[o*in:][:len(x)]
		sum := b[o]
		for i, v := range x {
			sum += row[i] * v
		}
		dst[o] = sum
	}
}

// Grads holds weight and bias gradients matching the MLP's shapes.
type Grads struct {
	W [][]float64
	B [][]float64
}

// NewGrads allocates zero gradients for m.
func NewGrads(m *MLP) *Grads {
	g := &Grads{}
	for l := range m.W {
		g.W = append(g.W, make([]float64, len(m.W[l])))
		g.B = append(g.B, make([]float64, len(m.B[l])))
	}
	return g
}

// Zero resets all gradients.
func (g *Grads) Zero() {
	for l := range g.W {
		for i := range g.W[l] {
			g.W[l][i] = 0
		}
		for i := range g.B[l] {
			g.B[l][i] = 0
		}
	}
}

// Backward propagates the output cotangent gOut through the taped forward
// pass, accumulating weight gradients into grads (if non-nil) and returning
// the gradient with respect to the input.
func (m *MLP) Backward(t *Tape, gOut []float64, grads *Grads) []float64 {
	dst := make([]float64, m.Sizes[0])
	return m.BackwardInto(t, gOut, grads, dst)
}

// BackwardInto is Backward writing the input gradient into dst (length
// Sizes[0]) and reusing the tape's delta scratch, so steady-state
// backpropagation allocates nothing. The arithmetic is identical to
// Backward; dst is returned.
//
//mlmd:hotpath
func (m *MLP) BackwardInto(t *Tape, gOut []float64, grads *Grads, dst []float64) []float64 {
	width := 0
	for _, s := range m.Sizes {
		if s > width {
			width = s
		}
	}
	if cap(t.d0) < width {
		t.d0 = make([]float64, width)
		t.d1 = make([]float64, width)
	}
	delta := t.d0[:len(gOut)]
	spare := t.d1
	copy(delta, gOut)
	for l := len(m.W) - 1; l >= 0; l-- {
		in, out := m.Sizes[l], m.Sizes[l+1]
		last := l == len(m.W)-1
		// δ ← δ ⊙ act'(pre) for hidden layers, from the taped derivative.
		if !last {
			dact := t.dact[l][:len(delta)]
			for o := range delta {
				delta[o] *= dact[o]
			}
		}
		if grads != nil {
			for o := 0; o < out; o++ {
				gw := grads.W[l][o*in : (o+1)*in]
				xo := t.inputs[l]
				d := delta[o]
				for i := range gw {
					gw[i] += d * xo[i]
				}
				grads.B[l][o] += d
			}
		}
		// Input gradient: Wᵀ δ.
		next := spare[:in]
		for i := range next {
			next[i] = 0
		}
		m.transposeAccum(l, delta, next)
		spare = delta[:cap(delta)]
		delta = next
	}
	copy(dst[:m.Sizes[0]], delta)
	return dst[:m.Sizes[0]]
}

// transposeAccum adds W[l]ᵀ·delta into next. Four consecutive rows fold
// into one pass over next, each element adding their terms in ascending
// row order — the add sequence of one pass per row, so the bits are the
// same while the passes over next drop fourfold. Leftover rows take the
// one-row loop.
//
//mlmd:hotpath
func (m *MLP) transposeAccum(l int, delta, next []float64) {
	in, out := m.Sizes[l], m.Sizes[l+1]
	w := m.W[l]
	o := 0
	for ; o+4 <= out; o += 4 {
		r0 := w[o*in:][:len(next)]
		r1 := w[(o+1)*in:][:len(next)]
		r2 := w[(o+2)*in:][:len(next)]
		r3 := w[(o+3)*in:][:len(next)]
		d0, d1, d2, d3 := delta[o], delta[o+1], delta[o+2], delta[o+3]
		for i, n := range next {
			n += d0 * r0[i]
			n += d1 * r1[i]
			n += d2 * r2[i]
			n += d3 * r3[i]
			next[i] = n
		}
	}
	for ; o < out; o++ {
		row := w[o*in:][:len(next)]
		d := delta[o]
		for i := range next {
			next[i] += d * row[i]
		}
	}
}

// InputGradient returns d(out[0])/dx for a scalar-output network — the
// analytic derivative used to turn a learned energy into forces.
func (m *MLP) InputGradient(x []float64) []float64 {
	t := m.ForwardTape(x)
	gOut := make([]float64, m.Sizes[len(m.Sizes)-1])
	gOut[0] = 1
	return m.Backward(t, gOut, nil)
}

// Clone returns a deep copy.
func (m *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), m.Sizes...), Act: m.Act}
	for l := range m.W {
		c.W = append(c.W, append([]float64(nil), m.W[l]...))
		c.B = append(c.B, append([]float64(nil), m.B[l]...))
	}
	return c
}

// Params flattens all parameters into a single slice view operation: it
// copies into dst (length NumWeights) and returns it.
func (m *MLP) Params(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.NumWeights())
	}
	k := 0
	for l := range m.W {
		k += copy(dst[k:], m.W[l])
		k += copy(dst[k:], m.B[l])
	}
	return dst
}

// SetParams loads parameters from a flat slice (inverse of Params).
func (m *MLP) SetParams(src []float64) {
	k := 0
	for l := range m.W {
		k += copy(m.W[l], src[k:k+len(m.W[l])])
		k += copy(m.B[l], src[k:k+len(m.B[l])])
	}
}

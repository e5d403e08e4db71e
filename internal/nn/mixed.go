package nn

import (
	"fmt"

	"mlmd/internal/precision"
)

// MixedBatch is the float32 staging of one MLP for GEMMMixed-backed blocked
// inference: weights, biases and activations are held in float32 and every
// layer's matrix product runs under a precision.Mode (FP32 on the
// register-tiled GEMM32, or the BF16 split-product ladder). This is the
// measurable mixed-precision switch of the paper's PVC systolic-array
// story — it is NOT bitwise-comparable to the float64 paths, and (unlike
// BatchTape) it is excluded from the 0-alloc steady-state contract: the
// BF16 modes split their operands per call.
//
// Weights are restaged from the MLP on every forward pass, so a MixedBatch
// never goes stale when the network trains between evaluations.
type MixedBatch struct {
	rows int
	// w32[l]/b32[l] are the float32 copies of W[l]/B[l]; wT32[l] is the
	// transpose of w32[l] for the forward product.
	w32, wT32, b32 [][]float32
	// in[l]/pre[l] are the rows×width activation blocks (a hidden layer's
	// pre[l] holds act'(pre-activation) once activated); out is the
	// rows×outDim output block.
	in, pre [][]float32
	out     []float32
	// d0/d1 are the ping-pong delta blocks of BackwardBatchMixed.
	d0, d1 []float32
}

// Rows returns the number of rows staged by the last forward pass.
func (t *MixedBatch) Rows() int { return t.rows }

// Out returns row r's first output (scalar-output networks) widened to
// float64.
func (t *MixedBatch) Out(r int) float64 { return float64(t.out[r]) }

// ensureMixed sizes t's buffers for a rows-row pass through m.
func (m *MLP) ensureMixed(t *MixedBatch, rows int) {
	layers := len(m.W)
	if len(t.in) != layers {
		t.in = make([][]float32, layers)
		t.pre = make([][]float32, layers)
		t.w32 = make([][]float32, layers)
		t.wT32 = make([][]float32, layers)
		t.b32 = make([][]float32, layers)
	}
	width := 0
	for _, s := range m.Sizes {
		if s > width {
			width = s
		}
	}
	for l := 0; l < layers; l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if cap(t.in[l]) < rows*in {
			t.in[l] = make([]float32, rows*in)
		}
		if cap(t.pre[l]) < rows*out {
			t.pre[l] = make([]float32, rows*out)
		}
		if len(t.w32[l]) != in*out {
			t.w32[l] = make([]float32, in*out)
			t.wT32[l] = make([]float32, in*out)
			t.b32[l] = make([]float32, out)
		}
	}
	if n := rows * m.Sizes[layers]; cap(t.out) < n {
		t.out = make([]float32, n)
	}
	if cap(t.d0) < rows*width {
		t.d0 = make([]float32, rows*width)
		t.d1 = make([]float32, rows*width)
	}
	t.rows = rows
}

// ForwardBatchMixed stages m's weights to float32, gathers x (rows×Sizes[0],
// row-major, rounded to float32) and runs the blocked forward pass with one
// GEMMMixed per layer under mode, recording activations for
// BackwardBatchMixed.
func (m *MLP) ForwardBatchMixed(mode precision.Mode, x []float64, rows int, t *MixedBatch) *MixedBatch {
	if len(x) != rows*m.Sizes[0] {
		panic(fmt.Sprintf("nn: mixed batch input length %d != %d rows × %d", len(x), rows, m.Sizes[0]))
	}
	m.ensureMixed(t, rows)
	if rows == 0 {
		return t
	}
	layers := len(m.W)
	x32 := t.in[0][:rows*m.Sizes[0]]
	for i, v := range x {
		x32[i] = float32(v)
	}
	for l := 0; l < layers; l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		w32, wt32, b32 := t.w32[l], t.wT32[l], t.b32[l]
		for i, v := range m.W[l] {
			w32[i] = float32(v)
		}
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				wt32[i*out+o] = w32[o*in+i]
			}
		}
		for o, v := range m.B[l] {
			b32[o] = float32(v)
		}
		pre := t.pre[l][:rows*out]
		precision.GEMMMixed(mode, rows, out, in, t.in[l][:rows*in], wt32, pre)
		for r := 0; r < rows; r++ {
			row := pre[r*out : (r+1)*out]
			for o := range row {
				row[o] += b32[o]
			}
		}
		if l == layers-1 {
			copy(t.out[:rows*out], pre)
		} else {
			dst := t.in[l+1][:rows*out]
			for i, v := range pre {
				y, d := actFn(m.Act, float64(v))
				dst[i], pre[i] = float32(y), float32(d)
			}
		}
	}
	return t
}

// BackwardBatchMixed propagates the scalar cotangent dE/dout = 1 of every
// row through the staged forward pass (the force-inference case), writing
// the float64-widened input gradients into dst (t.rows×Sizes[0], returned).
func (m *MLP) BackwardBatchMixed(mode precision.Mode, t *MixedBatch, dst []float64) []float64 {
	rows := t.rows
	outDim := m.Sizes[len(m.Sizes)-1]
	if rows == 0 {
		return dst[:0]
	}
	delta := t.d0[:rows*outDim]
	for i := range delta {
		delta[i] = 1
	}
	spare := t.d1
	for l := len(m.W) - 1; l >= 0; l-- {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if l < len(m.W)-1 {
			dact := t.pre[l][:rows*out]
			for i, d := range dact {
				delta[i] *= d
			}
		}
		next := spare[:rows*in]
		precision.GEMMMixed(mode, rows, in, out, delta, t.w32[l], next)
		spare = delta[:cap(delta)]
		delta = next
	}
	n := rows * m.Sizes[0]
	for i := 0; i < n; i++ {
		dst[i] = float64(delta[i])
	}
	return dst[:n]
}

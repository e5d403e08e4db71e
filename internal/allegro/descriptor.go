// Package allegro implements the XS-NNQMD force-field model in the spirit of
// the paper's Allegro family (Sec. V.A.6-7): strictly local per-atom
// descriptors within a cutoff (no message passing, which is what makes
// Allegro scalable), a per-species MLP mapping descriptors to atomic
// energies, analytic forces by backpropagation through the descriptors,
// Legato (SAM) training for robustness, total-energy-alignment (TEA) for
// multi-fidelity foundation-model training, and two-batch block inference
// (Sec. V.B.9).
//
// The descriptors are rotation- and permutation-invariant contractions of
// l=0 and l=1 neighbor tensors: per species, Gaussian radial-basis sums
// (scalars) and the squared modulus of radial-weighted direction sums
// (vector channel contracted to an invariant) — a light-weight stand-in for
// the full E(3)-equivariant tensor products of Allegro that preserves the
// information needed by the ferroelectric workload (the off-centering of an
// atom inside its cage is exactly an l=1 feature).
package allegro

import (
	"fmt"
	"math"

	"mlmd/internal/md"
)

// DescriptorSpec fixes the descriptor layout.
type DescriptorSpec struct {
	Cutoff   float64 // radial cutoff (Bohr)
	NRadial  int     // number of Gaussian radial basis functions
	NSpecies int     // number of atom species
}

// Dim returns the descriptor length: per species, NRadial scalars plus
// NRadial vector-channel invariants.
func (d DescriptorSpec) Dim() int { return d.NSpecies * d.NRadial * 2 }

// Validate reports configuration errors.
func (d DescriptorSpec) Validate() error {
	if d.Cutoff <= 0 {
		return fmt.Errorf("allegro: cutoff %g must be positive", d.Cutoff)
	}
	if d.NRadial < 1 || d.NSpecies < 1 {
		return fmt.Errorf("allegro: NRadial=%d NSpecies=%d must be >= 1", d.NRadial, d.NSpecies)
	}
	return nil
}

// Centers returns the radial basis centers, evenly spaced in (0, cutoff) —
// the cs scratch argument of the *Into evaluation paths and of PairGradTerm.
func (d DescriptorSpec) Centers() []float64 { return d.centers() }

// centers returns the radial basis centers, evenly spaced in (0, cutoff).
func (d DescriptorSpec) centers() []float64 {
	c := make([]float64, d.NRadial)
	for k := range c {
		c[k] = d.Cutoff * float64(k+1) / float64(d.NRadial+1)
	}
	return c
}

// width returns the shared Gaussian width.
func (d DescriptorSpec) width() float64 {
	return d.Cutoff / float64(d.NRadial+1)
}

// cutoffFn is the smooth cosine cutoff and its radial derivative.
func cutoffFn(r, rc float64) (f, df float64) {
	if r >= rc {
		return 0, 0
	}
	x := math.Pi * r / rc
	return 0.5 * (math.Cos(x) + 1), -0.5 * math.Pi / rc * math.Sin(x)
}

// neighborEnv is the cached geometry of one atom's neighborhood. Its
// backing slices are reused across atoms by reset, so a long-lived env
// (e.g. one per pool worker) makes environment construction
// allocation-free in steady state.
type neighborEnv struct {
	j          []int     // neighbor atom indices
	dx, dy, dz []float64 // displacement components (j − i)
	r          []float64
}

func (env *neighborEnv) reset() {
	env.j = env.j[:0]
	env.dx = env.dx[:0]
	env.dy = env.dy[:0]
	env.dz = env.dz[:0]
	env.r = env.r[:0]
}

// buildEnv collects all neighbors of atom i within cutoff into env,
// reusing its backing storage. The neighbor order comes from the list's
// full-list CSR and matches the seed's per-call half-list expansion.
//
//mlmd:hotpath
func buildEnv(sys *md.System, nl *md.NeighborList, i int, rc float64, env *neighborEnv) {
	env.reset()
	for _, j32 := range nl.FullNeighbors(i) {
		j := int(j32)
		dx, dy, dz := sys.MinImage(j, i) // vector from i to j
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if r >= rc || r == 0 {
			continue
		}
		env.j = append(env.j, j)
		env.dx = append(env.dx, dx)
		env.dy = append(env.dy, dy)
		env.dz = append(env.dz, dz)
		env.r = append(env.r, r)
	}
}

// Descriptor computes the invariant feature vector of atom i into out
// (length Dim). The layout is, per neighbor species sp and radial index k:
//
//	out[(sp*NR+k)*2+0] = Σ_j g_k(r_ij) fc(r_ij)                (scalar)
//	out[(sp*NR+k)*2+1] = |Σ_j g_k(r_ij) fc(r_ij) r̂_ij|²        (vector²)
func (d DescriptorSpec) Descriptor(sys *md.System, env neighborEnv, out []float64) {
	d.descriptorInto(sys, env, out, d.centers(), make([]float64, d.NSpecies*d.NRadial*3))
}

// descriptorInto is Descriptor with caller-provided scratch (cs from
// centers(), vec of length NSpecies*NRadial*3), so per-worker hot loops
// avoid per-atom allocation.
//
//mlmd:hotpath
func (d DescriptorSpec) descriptorInto(sys *md.System, env neighborEnv, out, cs, vec []float64) {
	if len(out) != d.Dim() {
		panic("allegro: descriptor output length mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	for i := range vec {
		vec[i] = 0
	}
	w := d.width()
	nr := d.NRadial
	for n := range env.j {
		sp := sys.Type[env.j[n]]
		r := env.r[n]
		fc, _ := cutoffFn(r, d.Cutoff)
		ux, uy, uz := env.dx[n]/r, env.dy[n]/r, env.dz[n]/r
		for k := 0; k < nr; k++ {
			g := math.Exp(-(r - cs[k]) * (r - cs[k]) / (2 * w * w))
			base := (sp*nr + k)
			out[base*2] += g * fc
			vec[base*3] += g * fc * ux
			vec[base*3+1] += g * fc * uy
			vec[base*3+2] += g * fc * uz
		}
	}
	for b := 0; b < d.NSpecies*nr; b++ {
		out[b*2+1] = vec[b*3]*vec[b*3] + vec[b*3+1]*vec[b*3+1] + vec[b*3+2]*vec[b*3+2]
	}
}

// descriptorGradPre accumulates dE/dx for all atoms given dE/dD of atom i
// (gD, length Dim) and the cached environment, using the chain rule through
// the descriptor. vec must be exactly what descriptorInto filled for the
// same environment (the vector accumulators the vector² chain needs).
// Forces are F = −dE/dx; the caller negates.
//
//mlmd:hotpath
func (d DescriptorSpec) descriptorGradPre(sys *md.System, env neighborEnv, i int, gD, dEdx, cs, vec []float64) {
	for n := range env.j {
		j := env.j[n]
		gx, gy, gz := d.PairGradTerm(sys.Type[j], gD, vec, cs, env.dx[n], env.dy[n], env.dz[n], env.r[n])
		dEdx[3*j] += gx
		dEdx[3*j+1] += gy
		dEdx[3*j+2] += gz
		dEdx[3*i] -= gx
		dEdx[3*i+1] -= gy
		dEdx[3*i+2] -= gz
	}
}

// PairGradTerm evaluates the gradient of one atom's energy with respect to a
// single neighbor's position: given the center atom's backpropagated dE/dD
// (gD), its vector-channel accumulators S (vec, as filled by the descriptor
// evaluation), the radial centers cs, the neighbor's species spJ and the pair
// geometry (dx,dy,dz,r = displacement neighbor − center), it returns
// G = dE_center/dx_neighbor. By Newton's third law through the descriptor
// chain rule, the same G enters the center's own gradient with a minus sign.
//
// This is the single source of the pair-term arithmetic: both the global
// scatter path (descriptorGradPre) and the sharded canonical assembly
// (internal/shard's Allegro adapter) call it, so a force summed from
// PairGradTerm values in a fixed order is bitwise reproducible across
// decompositions.
//
//mlmd:hotpath
func (d DescriptorSpec) PairGradTerm(spJ int, gD, vec, cs []float64, dx, dy, dz, r float64) (gx, gy, gz float64) {
	w := d.width()
	nr := d.NRadial
	fc, dfc := cutoffFn(r, d.Cutoff)
	ux, uy, uz := dx/r, dy/r, dz/r
	// d(unit vector)/d(x_j) pieces: du_a/dx_b = (δ_ab − u_a u_b)/r.
	for k := 0; k < nr; k++ {
		base := spJ*nr + k
		g := math.Exp(-(r - cs[k]) * (r - cs[k]) / (2 * w * w))
		dg := g * (-(r - cs[k]) / (w * w))
		// Scalar channel: D = Σ g fc ⇒ dD/dr = (dg fc + g dfc),
		// dr/dx_j = u.
		cS := gD[base*2] * (dg*fc + g*dfc)
		// Vector channel: D = |S|², S = Σ g fc u.
		// dD/dx_j = 2 S · [ (dg fc + g dfc) u ⊗ u + g fc (I − u⊗u)/r ].
		sx, sy, sz := vec[base*3], vec[base*3+1], vec[base*3+2]
		su := sx*ux + sy*uy + sz*uz
		cRad := gD[base*2+1] * 2 * (su * (dg*fc + g*dfc))
		cTan := gD[base*2+1] * 2 * g * fc / r
		gx += cS*ux + cRad*ux + cTan*(sx-su*ux)
		gy += cS*uy + cRad*uy + cTan*(sy-su*uy)
		gz += cS*uz + cRad*uz + cTan*(sz-su*uz)
	}
	return gx, gy, gz
}

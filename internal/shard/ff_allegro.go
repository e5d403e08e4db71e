package shard

import (
	"fmt"
	"math"

	"mlmd/internal/allegro"
	"mlmd/internal/par"
)

// allegroGrain is the fixed chunk size of both pool-parallel phases (small:
// per-atom inference is much heavier than an LJ row sum). It is also the
// chunk width of the energy reduction replay in PhaseOneFinish, so the
// energy bits do not depend on where phase one was split.
const allegroGrain = 16

// AllegroFF shards an Allegro-style neural force field with canonical-order
// force assembly, making sharded trajectories bitwise identical across grid
// shapes — the fixed-order ghost-partial gather that closes the PR 2
// cross-P drift. Each rank holds a CloneShared of the model (shared
// read-only weights) and runs the engine's two-phase path:
//
//   - PhaseOne evaluates every owned atom i against its ascending-global-id
//     neighbor row: the atomic energy E_i plus a fixed-width payload
//     [gD_i | S_i] — the backpropagated descriptor cotangent and the
//     vector-channel accumulators, exactly the center-atom inputs
//     allegro.DescriptorSpec.PairGradTerm needs.
//   - The engine halo-exchanges the payloads (same three-axis pattern and
//     ghost slots as positions), so every rank holds the payload of every
//     atom its owned atoms interact with.
//   - PhaseTwo assembles each owned atom j's force as a single chain over
//     its neighbor row in ascending global-id order: for every neighbor i
//     within the model cutoff it adds G(i→j) (from i's payload — i may be a
//     ghost) and subtracts G(j→i) (from j's own payload).
//
// Every term of that chain is computed by the one shared PairGradTerm
// routine from raw global coordinates and owner-computed payloads, and the
// chain order is the decomposition-invariant global-id order — so forces
// are bitwise identical for every grid shape, per the package determinism
// contract. (The PR 2 adapter reverse-exchanged rank-local force sums,
// whose grouping necessarily depended on the decomposition.)
//
// AllegroFF also implements TwoPhaseSplitFF: per-atom energies are stored
// in eAtom by PhaseOneRange and reduced by PhaseOneFinish in fixed
// allegroGrain chunks over [0, NOwn), so the engine can evaluate boundary
// atoms first and overlap the interior evaluation with the first payload
// exchange axis without perturbing a single energy bit.
type AllegroFF struct {
	m  *allegro.Model
	cs []float64

	scratch *par.Scratch[allegroWS]
	// eAtom[i] is owned atom i's energy from the current phase one.
	eAtom []float64

	p1ctx struct {
		v    *View
		aux  []float64
		base int
	}
	p2ctx struct {
		v    *View
		aux  []float64
		base int
	}
	phase1Fn, phase2Fn func(lo, hi, w int)
}

type allegroWS struct {
	scr allegro.EvalScratch
}

// AllegroFactory returns a Config.NewFF producing per-rank shared-weight
// clones of model.
func AllegroFactory(model *allegro.Model) func(rank int) RankFF {
	return func(int) RankFF {
		return &AllegroFF{m: model.CloneShared(), cs: model.Spec.Centers()}
	}
}

// PartialLen implements RankFF.
func (a *AllegroFF) PartialLen() int { return 1 }

// NeedsNeighborList implements RankFF: both phases run over the engine's
// ascending-global-id neighbor rows — the order is the determinism
// contract, not just an optimization.
func (a *AllegroFF) NeedsNeighborList() bool { return true }

// AuxLen implements TwoPhaseFF: [gD | S] per atom.
func (a *AllegroFF) AuxLen() int {
	return a.m.Spec.Dim() + a.m.Spec.NSpecies*a.m.Spec.NRadial*3
}

// PhaseOne implements TwoPhaseFF: the whole owned range in one sweep —
// exactly PhaseOneRange over [0, NOwn) plus PhaseOneFinish.
func (a *AllegroFF) PhaseOne(v *View, aux, partial []float64) {
	a.PhaseOneRange(v, aux, 0, v.NOwn)
	a.PhaseOneFinish(v, partial)
}

// PhaseOneRange implements TwoPhaseSplitFF: per-atom inference of owned
// atoms [lo, hi), filling their aux payloads and eAtom energies. Each
// atom's results depend only on its own neighbor row, so the engine's
// split point never shows in the trajectory.
func (a *AllegroFF) PhaseOneRange(v *View, aux []float64, lo, hi int) {
	if v.Cutoff < a.m.Spec.Cutoff {
		panic(fmt.Sprintf("shard: engine cutoff %g is smaller than the Allegro model cutoff %g — the halo would miss interacting neighbors",
			v.Cutoff, a.m.Spec.Cutoff))
	}
	n := hi - lo
	if n <= 0 {
		return
	}
	a.eAtom = resizeF64(a.eAtom, v.NOwn)
	a.ensureClosures()
	a.p1ctx.v = v
	a.p1ctx.aux = aux
	a.p1ctx.base = lo
	par.For(n, allegroGrain, a.phase1Fn)
}

// PhaseOneFinish implements TwoPhaseSplitFF: the energy reduction over all
// owned atoms in fixed allegroGrain chunks — ascending atoms within a
// chunk, ascending chunks — so the sum's bits are independent of how
// PhaseOneRange calls covered [0, NOwn).
func (a *AllegroFF) PhaseOneFinish(v *View, partial []float64) {
	n := v.NOwn
	var e float64
	for lo := 0; lo < n; lo += allegroGrain {
		hi := lo + allegroGrain
		if hi > n {
			hi = n
		}
		var c float64
		for i := lo; i < hi; i++ {
			c += a.eAtom[i]
		}
		e += c
	}
	partial[0] += e
}

// PhaseTwo implements TwoPhaseFF: canonical-order force assembly of owned
// atoms [lo, hi) from the exchanged payloads.
func (a *AllegroFF) PhaseTwo(v *View, aux []float64, lo, hi int) {
	if hi-lo <= 0 {
		return
	}
	a.p2ctx.v = v
	a.p2ctx.aux = aux
	a.p2ctx.base = lo
	a.ensureClosures()
	par.For(hi-lo, allegroGrain, a.phase2Fn)
}

// Compute implements RankFF for non-engine callers: both phases back to
// back. It is only correct on a ghost-free view (single rank) — ghost
// payload rows can come solely from the engine's aux halo exchange, so a
// multi-rank view here would silently assemble from zeroed payloads.
// The engine itself always drives the TwoPhaseFF path.
func (a *AllegroFF) Compute(v *View, partial []float64) {
	if v.NLoc != v.NOwn {
		panic("shard: AllegroFF.Compute on a view with ghosts — ghost payloads require the engine's TwoPhaseFF aux exchange")
	}
	aux := make([]float64, v.NLoc*a.AuxLen())
	a.PhaseOne(v, aux, partial)
	a.PhaseTwo(v, aux, 0, v.NOwn)
}

// Energy implements RankFF.
func (a *AllegroFF) Energy(_ *View, total []float64) float64 { return total[0] }

func (a *AllegroFF) ensureClosures() {
	if a.phase1Fn != nil {
		return
	}
	if a.scratch == nil {
		a.scratch = par.NewScratch(func() *allegroWS { return &allegroWS{} })
	}
	dim := a.m.Spec.Dim()
	w := a.AuxLen()
	a.phase1Fn = func(lo, hi, worker int) {
		v := a.p1ctx.v
		aux := a.p1ctx.aux
		base := a.p1ctx.base
		ws := a.scratch.Get(worker)
		for i := base + lo; i < base+hi; i++ {
			row := aux[i*w : (i+1)*w]
			a.eAtom[i] = a.m.EvalAtom(v.Sys, i, v.NL.Row(i), a.cs, &ws.scr, row[:dim], row[dim:])
		}
	}
	a.phase2Fn = func(lo, hi, _ int) {
		v := a.p2ctx.v
		aux := a.p2ctx.aux
		base := a.p2ctx.base
		spec := a.m.Spec
		rc := spec.Cutoff
		sys := v.Sys
		for j := base + lo; j < base+hi; j++ {
			rowJ := aux[j*w : (j+1)*w]
			var ax, ay, az float64 // dE/dx_j chain, ascending gid of i
			for _, i32 := range v.NL.Row(j) {
				i := int(i32)
				// Geometry exactly as EvalAtom builds each center's
				// environment: MinImage(neighbor, center). The two
				// displacements are bitwise negations, so the membership
				// test (r < cutoff) agrees with both owners' phase-one
				// environments.
				dxj, dyj, dzj := sys.MinImage(j, i) // center i, neighbor j
				r := math.Sqrt(dxj*dxj + dyj*dyj + dzj*dzj)
				if r >= rc || r == 0 {
					continue
				}
				rowI := aux[i*w : (i+1)*w]
				// + G(i→j): atom i's energy moved by x_j.
				gx, gy, gz := spec.PairGradTerm(v.Type[j], rowI[:dim], rowI[dim:], a.cs, dxj, dyj, dzj, r)
				ax += gx
				ay += gy
				az += gz
				// − G(j→i): atom j's own energy moved by x_j (Newton's
				// third law through the descriptor chain rule).
				dxi, dyi, dzi := sys.MinImage(i, j) // center j, neighbor i
				gx, gy, gz = spec.PairGradTerm(v.Type[i], rowJ[:dim], rowJ[dim:], a.cs, dxi, dyi, dzi, r)
				ax -= gx
				ay -= gy
				az -= gz
			}
			v.F[3*j] = -ax
			v.F[3*j+1] = -ay
			v.F[3*j+2] = -az
		}
	}
}

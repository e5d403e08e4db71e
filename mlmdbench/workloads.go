package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"mlmd/internal/allegro"
	"mlmd/internal/cluster"
	"mlmd/internal/core"
	"mlmd/internal/ferro"
	"mlmd/internal/grid"
	"mlmd/internal/linalg"
	"mlmd/internal/maxwell"
	"mlmd/internal/md"
	"mlmd/internal/mlmdio"
	"mlmd/internal/precision"
	"mlmd/internal/shard"
	"mlmd/internal/shard/halo"
	"mlmd/internal/units"
)

// Output-check tolerances. A step whose observables break one counts as a
// failed operation.
const (
	// dcmeshNormTol bounds the worst orbital-norm drift of DC-MESH.
	dcmeshNormTol = 1e-2
	// nnqmdEnergyTol and ljEnergyTol bound the NVE relative total-energy
	// drift |E(t) − E(0)| / |E(0)| of the particle workloads, E(0) taken at
	// the prime. The LJ potential is truncated unshifted at 2σ, just inside
	// the third fcc shell (2.08σ): over seeds 1–4, E dips by up to 1.2% in
	// the first ten steps, then holds near 0.7% for thousands of steps.
	nnqmdEnergyTol = 1e-6
	ljEnergyTol    = 2e-2
	// fdtdEnergyMax bounds the driven FDTD box's field energy (a.u.); the
	// source adds energy every step, so the check is a blow-up bound.
	fdtdEnergyMax = 1e3
)

// workload is one benchmark workload.
type workload struct {
	name string
	// warmup steps follow construction and count as set-up: the first
	// steps of a fresh engine run far slower than its steady state.
	warmup int
	// prefix is the fixed number of untimed steps after set-up over which
	// the exact counters are taken and at whose end the state is compared.
	prefix int
	// grid is the rank grid of the measured runs; zero for DC-MESH, which
	// does not run on the sharded engines.
	grid [3]int
	// unit names the work unit of the workload's time-to-solution.
	unit string
	open func(c openCfg) (instance, error)
}

// openCfg parameterises one instance of a workload.
type openCfg struct {
	seed int64
	grid [3]int
	// probe, when non-nil, wraps the instance's force fields or grid
	// workloads with the timing wrappers.
	probe *probe
	// dir receives checkpoint files.
	dir string
}

// instance is one constructed workload, driven step by step.
type instance interface {
	// step makes one step call: one DC-MESH MD step or one Run(1).
	step() error
	// check validates the observables of the last step (untimed).
	check() error
	// state returns the full gathered state, for bitwise comparison.
	state() ([]float64, error)
	// counters returns the program's cumulative exact counters.
	counters() counters
	// unitsPerStep is the T2S work per step: electron·QD steps,
	// atom·weights, atoms or cells.
	unitsPerStep() float64
	// health describes the output checks' observables so far.
	health() string
	// setupParts returns the engine construction and prime times (zero
	// for DC-MESH).
	setupParts() (newEngine, prime time.Duration)
	close()
}

// checkpointer is an instance that writes a checkpoint every few steps.
type checkpointer interface {
	checkpointDue() bool
	checkpoint() (ckptRec, error)
}

// counters are program-side counts that repeat exactly for a given seed.
type counters struct {
	rebuilds, migrated int64
	flops              uint64
	haloBytes          int64
	commSeconds        float64
}

func (c counters) sub(o counters) counters {
	return counters{c.rebuilds - o.rebuilds, c.migrated - o.migrated, c.flops - o.flops,
		c.haloBytes - o.haloBytes, c.commSeconds - o.commSeconds}
}

// ckptRec times one checkpoint write.
type ckptRec struct {
	total, gather, write time.Duration
	bytes                int64
}

var workloads = []*workload{
	{name: "dcmesh-pulse", warmup: 1, prefix: 3, unit: "electron·QD step", open: openDCMESH},
	{name: "nnqmd-pto", warmup: 10, prefix: 100, grid: [3]int{2, 1, 1}, unit: "atom·weight·MD step", open: openNNQMD},
	{name: "lj-melt", warmup: 10, prefix: 100, grid: [3]int{2, 1, 1}, unit: "atom·MD step", open: openLJ},
	{name: "fdtd-grid", warmup: 10, prefix: 100, grid: [3]int{2, 1, 1}, unit: "cell·step", open: openFDTD},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// dcmesh is the DC-MESH quantum workload: cmd/mlmd's pulse on a 16³ mesh
// in 2×2×1 domains of 16 orbitals, with the BF16 scissor correction.
type dcmesh struct {
	qd    *core.DCMESH
	nExc  []float64
	units float64
}

func openDCMESH(c openCfg) (instance, error) {
	cfg := core.DefaultDCMESHConfig()
	cfg.Global = grid.NewCubic(16, 0.8)
	cfg.Dx, cfg.Dy, cfg.Dz = 2, 2, 1
	cfg.Norb = 16
	cfg.NQD = 10
	cfg.GroundIters = 100
	cfg.Pulse = maxwell.NewPulse(0.3, units.Hartree(3.0), 0.5, 0.5)
	cfg.NonlocalMode = precision.ModeBF16
	cfg.NonlocalDelta = complex(0, 1e-3)
	cfg.Seed = c.seed
	qd, err := core.NewDCMESH(cfg)
	if err != nil {
		return nil, err
	}
	return &dcmesh{qd: qd, units: float64(cfg.NQD * len(qd.Domains) * cfg.Norb)}, nil
}

func (d *dcmesh) step() error {
	d.nExc = d.qd.MDStep()
	return nil
}

func (d *dcmesh) check() error {
	for i, v := range d.nExc {
		if !finite(v) {
			return fmt.Errorf("domain %d n_exc is %g", i, v)
		}
	}
	if drift := d.qd.NormDrift(); !(drift <= dcmeshNormTol) {
		return fmt.Errorf("norm drift %g exceeds %g", drift, dcmeshNormTol)
	}
	if e := d.qd.FieldEnergy(); !finite(e) {
		return fmt.Errorf("field energy is %g", e)
	}
	return nil
}

func (d *dcmesh) state() ([]float64, error) {
	var s []float64
	for _, dom := range d.qd.Domains {
		for _, z := range dom.Psi.Data {
			s = append(s, real(z), imag(z))
		}
		s = append(s, dom.NExc)
	}
	return s, nil
}

func (d *dcmesh) health() string {
	return fmt.Sprintf("norm drift %.3g (tolerance %g), total n_exc %.4g", d.qd.NormDrift(), dcmeshNormTol, d.qd.TotalExcitation())
}

func (d *dcmesh) counters() counters                         { return counters{flops: linalg.Flops()} }
func (d *dcmesh) unitsPerStep() float64                      { return d.units }
func (d *dcmesh) setupParts() (time.Duration, time.Duration) { return 0, 0 }
func (d *dcmesh) close()                                     {}

// particles drives a shard.Engine with NVE Run(1) calls.
type particles struct {
	eng           *shard.Engine
	sys           *md.System // gather target
	dt            float64
	e0, tol       float64
	maxDrift      float64
	last          shard.RunResult
	steps         int
	units         float64
	newEng, prime time.Duration
	ckptPath      string // empty: no checkpoints
	ckptEvery     int
}

func openParticles(c openCfg, sys *md.System, ec shard.Config, dt, tol, units float64) (*particles, error) {
	ec.Grid = c.grid
	ec.Net = cluster.Slingshot11()
	if c.probe != nil {
		ec.NewFF = c.probe.wrapFactory(ec.NewFF)
	}
	t0 := time.Now()
	eng, err := shard.NewEngine(ec, sys)
	if err != nil {
		return nil, err
	}
	p := &particles{eng: eng, sys: sys, dt: dt, tol: tol, units: units, newEng: time.Since(t0)}
	t0 = time.Now()
	r := eng.Run(0, dt, 0, 0)
	p.prime = time.Since(t0)
	if r.Err != nil {
		eng.Close()
		return nil, r.Err
	}
	p.e0 = r.PE + r.KE
	if !finite(p.e0) || p.e0 == 0 {
		eng.Close()
		return nil, fmt.Errorf("initial energy is %g", p.e0)
	}
	return p, nil
}

// outputScale scales the nnqmd-pto model's output layer (see openNNQMD).
const outputScale = 1e-3

// openNNQMD is the Allegro XS-NNQMD workload on 6×6×4 PbTiO3 cells.
func openNNQMD(c openCfg) (instance, error) {
	sys, _, err := ferro.NewLattice(6, 6, 4)
	if err != nil {
		return nil, err
	}
	sys.InitVelocities(units.ThermalEnergy(300), c.seed)
	spec := allegro.DescriptorSpec{Cutoff: 6, NRadial: 5, NSpecies: 3}
	model, err := allegro.NewModel(spec, []int{96, 96}, c.seed)
	if err != nil {
		return nil, err
	}
	// An untrained model puts the lattice far from its energy minimum: at
	// full scale NVE runs heat to 10⁴–10⁵ K within a thousand steps and
	// rebuild every few steps. Scaling each species net's output layer by
	// outputScale keeps the weights, their count and the inference cost,
	// and gives the gentle surface a trained model has at its minimum: the
	// lattice stays near 300 K and rebuilds about every 70 steps.
	for _, net := range model.Nets {
		for i := range net.W[len(net.W)-1] {
			net.W[len(net.W)-1][i] *= outputScale
		}
	}
	ec := shard.Config{Cutoff: spec.Cutoff, Skin: 0.5, NewFF: shard.AllegroFactory(model)}
	return openParticles(c, sys, ec, 5, nnqmdEnergyTol, float64(sys.N)*float64(model.NumWeights()))
}

// openLJ is the 5,324-atom fcc Lennard-Jones workload with a checkpoint
// every 10 steps.
func openLJ(c openCfg) (instance, error) {
	sys, err := md.NewFCCSystem(11, 1.7, 50)
	if err != nil {
		return nil, err
	}
	sys.InitVelocities(1e-3, c.seed)
	ec := shard.Config{Cutoff: 2.0, Skin: 0.3, NewFF: shard.LJFactory(0.01, 1.0)}
	p, err := openParticles(c, sys, ec, 2, ljEnergyTol, float64(sys.N))
	if err != nil {
		return nil, err
	}
	p.ckptPath, p.ckptEvery = filepath.Join(c.dir, "lj.ckpt"), 10
	return p, nil
}

func (p *particles) step() error {
	p.last = p.eng.Run(1, p.dt, 0, 0)
	p.steps++
	return p.last.Err
}

func (p *particles) check() error {
	e := p.last.PE + p.last.KE
	if !finite(e) {
		return fmt.Errorf("total energy is %g", e)
	}
	drift := math.Abs(e-p.e0) / math.Abs(p.e0)
	if drift > p.tol {
		return fmt.Errorf("relative energy drift %g exceeds %g", drift, p.tol)
	}
	p.maxDrift = max(p.maxDrift, drift)
	return nil
}

func (p *particles) state() ([]float64, error) {
	p.eng.GatherAll(p.sys)
	if err := p.eng.Err(); err != nil {
		return nil, err
	}
	s := make([]float64, 0, 9*p.sys.N)
	s = append(s, p.sys.X...)
	s = append(s, p.sys.V...)
	return append(s, p.sys.F...), nil
}

func (p *particles) health() string {
	return fmt.Sprintf("max relative energy drift %.3g (tolerance %g)", p.maxDrift, p.tol)
}

func (p *particles) counters() counters {
	rb, mig := p.eng.Stats()
	return counters{rebuilds: rb, migrated: mig, flops: linalg.Flops(), commSeconds: p.eng.ModeledCommSeconds()}
}

func (p *particles) unitsPerStep() float64                      { return p.units }
func (p *particles) setupParts() (time.Duration, time.Duration) { return p.newEng, p.prime }
func (p *particles) close()                                     { p.eng.Close() }

func (p *particles) checkpointDue() bool {
	return p.ckptEvery > 0 && p.steps%p.ckptEvery == 0
}

// checkpoint follows cmd/mlmd: gather the state, rotate the previous file
// to .prev, then write the new one atomically.
func (p *particles) checkpoint() (ckptRec, error) {
	var r ckptRec
	t0 := time.Now()
	p.eng.GatherAll(p.sys)
	r.gather = time.Since(t0)
	if err := p.eng.Err(); err != nil {
		return r, err
	}
	if _, err := os.Stat(p.ckptPath); err == nil {
		if err := os.Rename(p.ckptPath, p.ckptPath+".prev"); err != nil {
			return r, err
		}
	}
	cp := &mlmdio.Checkpoint{Step: int64(p.steps), Dt: p.dt, Grid: p.eng.Grid(), Sys: p.sys}
	for a := 0; a < 3; a++ {
		cp.Cuts[a] = p.eng.CutPlanes(a)
	}
	t1 := time.Now()
	err := mlmdio.WriteCheckpointFile(p.ckptPath, cp)
	r.write = time.Since(t1)
	r.total = time.Since(t0)
	if err != nil {
		return r, err
	}
	fi, err := os.Stat(p.ckptPath)
	if err != nil {
		return r, err
	}
	r.bytes = fi.Size()
	return r, nil
}

// fdtd is the driven 48³ Yee box on the grid engine, with the geometry of
// the repository's sharded-stencil benchmark.
type fdtd struct {
	eng           *shard.GridEngine
	obs           []float64
	cells         int
	energy        float64 // dV/8π, to turn the partial sums into energy
	newEng, prime time.Duration
}

const fdtdCells = 48

func openFDTD(c openCfg) (instance, error) {
	const n = fdtdCells
	h := [3]float64{1.0, 1.0, 1.0}
	dt := 0.9 * h[0] / math.Sqrt(3) / units.LightSpeed
	seed := uint64(c.seed)
	newWork := func(rank int, d halo.Domain) (shard.GridWorkload, error) {
		sim, err := maxwell.NewSim3D(d, maxwell.Sim3DConfig{
			H: h, Dt: dt,
			Drive:     maxwell.NewPulse(1e-2, 0.057, 0.02, 0.02),
			Source:    [3]int{n / 2, n / 2, n / 2},
			SourceAmp: 1,
		})
		if err != nil {
			return nil, err
		}
		sim.InitRandom(seed, 1e-3)
		return sim, nil
	}
	if c.probe != nil {
		newWork = c.probe.wrapWork(newWork)
	}
	t0 := time.Now()
	eng, err := shard.NewGridEngine(shard.GridConfig{
		Grid: c.grid, N: [3]int{n, n, n}, Ghost: 1,
		NewWork: newWork, Net: cluster.Slingshot11(),
	})
	if err != nil {
		return nil, err
	}
	f := &fdtd{eng: eng, cells: n * n * n, energy: h[0] * h[1] * h[2] / (8 * math.Pi), newEng: time.Since(t0)}
	t0 = time.Now()
	f.obs, err = eng.Run(0)
	f.prime = time.Since(t0)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return f, nil
}

func (f *fdtd) step() error {
	var err error
	f.obs, err = f.eng.Run(1)
	return err
}

func (f *fdtd) check() error {
	e := (f.obs[0] + f.obs[1]) * f.energy
	if !finite(e) || e < 0 || e > fdtdEnergyMax {
		return fmt.Errorf("field energy %g outside [0, %g]", e, fdtdEnergyMax)
	}
	return nil
}

// state gathers E and B: the AllReduced observables are rank-grouped sums
// whose last bits depend on the decomposition, the fields are not.
func (f *fdtd) state() ([]float64, error) {
	s := make([]float64, 2*3*f.cells)
	if err := f.eng.GatherField(0, s[:3*f.cells]); err != nil {
		return nil, err
	}
	if err := f.eng.GatherField(1, s[3*f.cells:]); err != nil {
		return nil, err
	}
	return s, nil
}

func (f *fdtd) health() string {
	return fmt.Sprintf("field energy %.4g (bound %g)", (f.obs[0]+f.obs[1])*f.energy, fdtdEnergyMax)
}

func (f *fdtd) counters() counters {
	return counters{flops: linalg.Flops(), haloBytes: f.eng.HaloBytes(), commSeconds: f.eng.ModeledCommSeconds()}
}

func (f *fdtd) unitsPerStep() float64                      { return float64(f.cells) }
func (f *fdtd) setupParts() (time.Duration, time.Duration) { return f.newEng, f.prime }
func (f *fdtd) close()                                     { f.eng.Close() }

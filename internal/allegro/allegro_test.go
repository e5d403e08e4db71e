package allegro

import (
	"math"
	"math/rand"
	"testing"

	"mlmd/internal/ferro"
	"mlmd/internal/md"
)

func testSpec() DescriptorSpec {
	return DescriptorSpec{Cutoff: ferro.LatticeConstant * 0.9, NRadial: 6, NSpecies: 3}
}

func smallLattice(t testing.TB) (*md.System, *ferro.Lattice, *ferro.EffectiveHamiltonian) {
	t.Helper()
	sys, lat, err := ferro.NewLattice(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return sys, lat, ferro.DefaultEffHam(lat)
}

// distortedLattice returns a small perovskite lattice with every cell's
// soft mode displaced so forces are nonzero and atom environments differ.
func distortedLattice(t testing.TB) *md.System {
	t.Helper()
	sys, lat, _ := smallLattice(t)
	for c := 0; c < lat.NumCells(); c++ {
		fc := float64(c)
		lat.SetSoftMode(sys, c, 0.02*math.Sin(fc+1), 0.015*math.Cos(fc), 0.03*math.Sin(2*fc))
	}
	return sys
}

func TestSpecValidation(t *testing.T) {
	if (DescriptorSpec{Cutoff: -1, NRadial: 4, NSpecies: 2}).Validate() == nil {
		t.Error("negative cutoff accepted")
	}
	if (DescriptorSpec{Cutoff: 5, NRadial: 0, NSpecies: 2}).Validate() == nil {
		t.Error("zero radial basis accepted")
	}
	s := testSpec()
	if s.Validate() != nil {
		t.Error("valid spec rejected")
	}
	if s.Dim() != 3*6*2 {
		t.Errorf("Dim = %d", s.Dim())
	}
}

func descriptorOf(t *testing.T, m *Model, sys *md.System, i int) []float64 {
	t.Helper()
	m.ensureNeighbors(sys)
	var env neighborEnv
	buildEnv(sys, m.nl, i, m.Spec.Cutoff, &env)
	d := make([]float64, m.Spec.Dim())
	m.Spec.Descriptor(sys, env, d)
	return d
}

func TestDescriptorTranslationInvariance(t *testing.T) {
	sys, _, _ := smallLattice(t)
	m, err := NewModel(testSpec(), []int{8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d0 := descriptorOf(t, m, sys, 7)
	for i := range sys.X {
		sys.X[i] += 1.37 // uniform shift (wraps periodically)
	}
	sys.Wrap()
	m.nl.Build(sys)
	d1 := descriptorOf(t, m, sys, 7)
	for k := range d0 {
		if math.Abs(d0[k]-d1[k]) > 1e-9 {
			t.Fatalf("descriptor changed under translation at %d: %g vs %g", k, d0[k], d1[k])
		}
	}
}

func TestDescriptorRotationInvariance(t *testing.T) {
	// Free cluster (no PBC wrap issues): random atoms near the box center,
	// rotate about the center by 90° (box is cubic, so the lattice maps to
	// itself under this rotation only for the cluster, which is all we use).
	l := 40.0
	sys, _ := md.NewSystem(6, l, l, l)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < sys.N; i++ {
		sys.Type[i] = i % 3
		for d := 0; d < 3; d++ {
			sys.X[3*i+d] = l/2 + rng.NormFloat64()*2
		}
		sys.Mass[i] = 1
	}
	spec := DescriptorSpec{Cutoff: 8, NRadial: 5, NSpecies: 3}
	m, _ := NewModel(spec, []int{4}, 3)
	d0 := descriptorOf(t, m, sys, 0)
	// Rotate all positions by an arbitrary rotation about the center.
	th := 0.7
	c, s := math.Cos(th), math.Sin(th)
	for i := 0; i < sys.N; i++ {
		x := sys.X[3*i] - l/2
		y := sys.X[3*i+1] - l/2
		z := sys.X[3*i+2] - l/2
		// Rotate about z then x.
		x, y = c*x-s*y, s*x+c*y
		y, z = c*y-s*z, s*y+c*z
		sys.X[3*i] = x + l/2
		sys.X[3*i+1] = y + l/2
		sys.X[3*i+2] = z + l/2
	}
	m.nl.Build(sys)
	d1 := descriptorOf(t, m, sys, 0)
	for k := range d0 {
		if math.Abs(d0[k]-d1[k]) > 1e-9 {
			t.Fatalf("descriptor changed under rotation at %d: %g vs %g", k, d0[k], d1[k])
		}
	}
}

func TestDescriptorSensitivity(t *testing.T) {
	// The vector channel must detect off-centering: displacing the central
	// Ti changes the l=1 features of its environment.
	sys, lat, _ := smallLattice(t)
	m, _ := NewModel(testSpec(), []int{4}, 4)
	ti := lat.TiIndex[0]
	d0 := descriptorOf(t, m, sys, ti)
	lat.SetSoftMode(sys, 0, 0.05, 0, 0)
	m.nl.Build(sys)
	d1 := descriptorOf(t, m, sys, ti)
	var diff float64
	for k := range d0 {
		diff += math.Abs(d1[k] - d0[k])
	}
	if diff < 1e-6 {
		t.Error("descriptor blind to Ti off-centering")
	}
}

func TestModelForcesMatchEnergyGradient(t *testing.T) {
	sys, lat, _ := smallLattice(t)
	// Distort so forces are nonzero.
	for c := 0; c < lat.NumCells(); c++ {
		fc := float64(c)
		lat.SetSoftMode(sys, c, 0.02*math.Sin(fc+1), 0.015*math.Cos(fc), 0.03*math.Sin(2*fc))
	}
	m, _ := NewModel(testSpec(), []int{10, 10}, 5)
	m.ComputeForces(sys)
	h := 1e-5
	for _, idx := range []int{0, 4, 3*lat.TiIndex[2] + 1, 3*sys.N - 1} {
		f0 := sys.F[idx]
		old := sys.X[idx]
		sys.X[idx] = old + h
		ep := m.Energy(sys)
		sys.X[idx] = old - h
		em := m.Energy(sys)
		sys.X[idx] = old
		want := -(ep - em) / (2 * h)
		if math.Abs(f0-want) > 1e-4*math.Max(1, math.Abs(want)) {
			t.Errorf("model force[%d] = %g, -dE/dx = %g", idx, f0, want)
		}
	}
}

func TestBlockInferenceMatchesUnblocked(t *testing.T) {
	sys, lat, _ := smallLattice(t)
	for c := 0; c < lat.NumCells(); c++ {
		lat.SetSoftMode(sys, c, 0.01*float64(c%3), -0.02, 0.03)
	}
	m, _ := NewModel(testSpec(), []int{8}, 6)
	e1 := m.ComputeForces(sys)
	f1 := append([]float64(nil), sys.F...)
	m.BlockSize = 7 // awkward block size on purpose
	e2 := m.ComputeForces(sys)
	if math.Abs(e1-e2) > 1e-9 {
		t.Errorf("blocked energy %g != unblocked %g", e2, e1)
	}
	for i := range f1 {
		if math.Abs(f1[i]-sys.F[i]) > 1e-9 {
			t.Fatalf("blocked force differs at %d", i)
		}
	}
	// Blocking must reduce the memory estimate.
	m.BlockSize = 0
	full := m.MemoryEstimate(100000)
	m.BlockSize = 1000
	blocked := m.MemoryEstimate(100000)
	if blocked >= full {
		t.Errorf("block inference did not reduce memory: %d vs %d", blocked, full)
	}
}

func TestTrainingLearnsEffectiveHamiltonian(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	sys, _, eh := smallLattice(t)
	samples := GenerateSamples(sys, eh, 40, 3e-4, 20, 5, DatasetPrimary, 10)
	holdout := samples[32:]
	train := samples[:32]
	m, _ := NewModel(testSpec(), []int{16, 16}, 11)
	res, err := m.Train(sys, train, TrainConfig{Epochs: 150, LR: 3e-3, Seed: 12, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.LossCurve[0] {
		t.Errorf("training did not reduce loss: %g -> %g", res.LossCurve[0], res.FinalLoss)
	}
	rmse := m.EnergyRMSE(sys, holdout, nil)
	t.Logf("holdout per-atom RMSE = %g Ha", rmse)
	if rmse > 5e-4 {
		t.Errorf("holdout RMSE %g too large", rmse)
	}
}

func TestTEAAlignsShiftedDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	// Two copies of the same physics with a constant energy offset between
	// "fidelities"; TEA must absorb the shift into its offsets.
	sys, _, eh := smallLattice(t)
	base := GenerateSamples(sys, eh, 24, 3e-4, 20, 5, 0, 20)
	shifted := make([]Sample, 12)
	const shift = 3.0 // huge constant offset, as between XC functionals
	for i := range shifted {
		s := base[12+i]
		shifted[i] = Sample{X: s.X, Energy: s.Energy + shift, Dataset: 1}
	}
	mixed := append(append([]Sample(nil), base[:12]...), shifted...)
	m, _ := NewModel(testSpec(), []int{16}, 21)
	res, err := m.Train(sys, mixed, TrainConfig{
		Epochs: 200, LR: 3e-3, TEA: true, NDataset: 2, Seed: 22, Batch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	gap := res.TEAOffsets[1] - res.TEAOffsets[0]
	t.Logf("TEA offsets: %v (true shift %g)", res.TEAOffsets, shift)
	if math.Abs(gap-shift) > 0.5 {
		t.Errorf("TEA recovered shift %g, want %g", gap, shift)
	}
}

func TestGenerateSamplesDeterministic(t *testing.T) {
	sys, _, eh := smallLattice(t)
	a := GenerateSamples(sys, eh, 3, 1e-4, 10, 3, 0, 5)
	b := GenerateSamples(sys, eh, 3, 1e-4, 10, 3, 0, 5)
	for i := range a {
		if a[i].Energy != b[i].Energy {
			t.Fatal("sample generation not deterministic for equal seeds")
		}
	}
	c := GenerateSamples(sys, eh, 3, 1e-4, 10, 3, 0, 6)
	if a[0].Energy == c[0].Energy && a[1].Energy == c[1].Energy {
		t.Error("different seeds gave identical trajectories")
	}
}

func BenchmarkModelInference(b *testing.B) {
	sys, lat, err := func() (*md.System, *ferro.Lattice, error) {
		return ferro.NewLattice(4, 4, 4)
	}()
	if err != nil {
		b.Fatal(err)
	}
	_ = lat
	m, _ := NewModel(testSpec(), []int{16, 16}, 1)
	m.ComputeForces(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ComputeForces(sys)
	}
	b.ReportMetric(float64(sys.N)*float64(b.N)/b.Elapsed().Seconds(), "atoms/s")
}

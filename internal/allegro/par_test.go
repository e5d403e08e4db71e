package allegro

import (
	"math"
	"testing"

	"mlmd/internal/par"
)

// TestForcesRunToRunDeterministic: with a fixed worker count and block
// size, repeated force evaluations must be bitwise identical — the per-part
// accumulators are keyed by static part index, not by which pool worker ran
// them, and the per-part scratch is reused without leaking state between
// calls.
func TestForcesRunToRunDeterministic(t *testing.T) {
	sys := distortedLattice(t)
	for _, workers := range []int{1, 4} {
		prev := par.SetWorkers(workers)
		for _, block := range []int{1, 7, 64, 0} { // 0 = whole system
			m, err := NewModel(testSpec(), []int{10, 10}, 5)
			if err != nil {
				t.Fatal(err)
			}
			m.BlockSize = block
			e0 := m.ComputeForces(sys)
			f0 := append([]float64(nil), sys.F...)
			for rep := 0; rep < 3; rep++ {
				e := m.ComputeForces(sys)
				if math.Float64bits(e) != math.Float64bits(e0) {
					t.Fatalf("workers=%d block=%d rep %d: energy %v != first run %v", workers, block, rep, e, e0)
				}
				for k := range f0 {
					if math.Float64bits(sys.F[k]) != math.Float64bits(f0[k]) {
						t.Fatalf("workers=%d block=%d rep %d: F[%d] = %v != first run %v",
							workers, block, rep, k, sys.F[k], f0[k])
					}
				}
			}
		}
		par.SetWorkers(prev)
	}
}

// TestComputeForcesSteadyStateAllocs: after warmup, the global per-atom
// force path must not allocate — per-part environments, descriptor
// buffers, tapes and dE/dx accumulators are all reused — with and without
// block inference.
func TestComputeForcesSteadyStateAllocs(t *testing.T) {
	sys := distortedLattice(t)
	for _, block := range []int{0, 7} {
		m, err := NewModel(testSpec(), []int{10, 10}, 5)
		if err != nil {
			t.Fatal(err)
		}
		m.BlockSize = block
		m.ComputeForces(sys)
		m.ComputeForces(sys)
		if n := testing.AllocsPerRun(20, func() { m.ComputeForces(sys) }); n != 0 {
			t.Errorf("block=%d: ComputeForces allocates %.1f/op in steady state, want 0", block, n)
		}
	}
}

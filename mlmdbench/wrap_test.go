package main

import (
	"math"
	"testing"

	"mlmd/internal/allegro"
	"mlmd/internal/ferro"
	"mlmd/internal/md"
	"mlmd/internal/shard"
	"mlmd/internal/units"
)

// optionalSet reports which optional force-field interfaces ff implements:
// BlockFF, TwoPhaseFF, TwoPhaseSplitFF.
func optionalSet(ff shard.RankFF) [3]bool {
	_, b := ff.(shard.BlockFF)
	_, t := ff.(shard.TwoPhaseFF)
	_, s := ff.(shard.TwoPhaseSplitFF)
	return [3]bool{b, t, s}
}

// Fakes covering every combination of the optional interfaces.
type fakeFF struct{}

func (fakeFF) PartialLen() int                               { return 1 }
func (fakeFF) NeedsNeighborList() bool                       { return false }
func (fakeFF) Compute(*shard.View, []float64)                {}
func (fakeFF) Energy(_ *shard.View, total []float64) float64 { return total[0] }

type fakeBlock struct{ fakeFF }

func (fakeBlock) ComputeBlock(*shard.View, int, int, []float64) {}

type fakeTwo struct{ fakeFF }

func (fakeTwo) AuxLen() int                                { return 1 }
func (fakeTwo) PhaseOne(*shard.View, []float64, []float64) {}
func (fakeTwo) PhaseTwo(*shard.View, []float64, int, int)  {}

type fakeSplit struct{ fakeTwo }

func (fakeSplit) PhaseOneRange(*shard.View, []float64, int, int) {}
func (fakeSplit) PhaseOneFinish(*shard.View, []float64)          {}

type fakeBlockTwo struct{ fakeTwo }

func (fakeBlockTwo) ComputeBlock(*shard.View, int, int, []float64) {}

type fakeBlockSplit struct{ fakeSplit }

func (fakeBlockSplit) ComputeBlock(*shard.View, int, int, []float64) {}

func smallAllegro(t *testing.T) (*md.System, *allegro.Model) {
	t.Helper()
	sys, _, err := ferro.NewLattice(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys.InitVelocities(units.ThermalEnergy(300), 3)
	model, err := allegro.NewModel(allegro.DescriptorSpec{Cutoff: 6, NRadial: 3, NSpecies: 3}, []int{8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return sys, model
}

func TestWrapFFKeepsOptionalSet(t *testing.T) {
	_, model := smallAllegro(t)
	for _, in := range []shard.RankFF{
		fakeFF{}, fakeBlock{}, fakeTwo{}, fakeSplit{}, fakeBlockTwo{}, fakeBlockSplit{},
		shard.LJFactory(0.01, 1)(0), shard.AllegroFactory(model)(0),
	} {
		if got, want := optionalSet(wrapFF(in, &clock{})), optionalSet(in); got != want {
			t.Errorf("%T: wrapper implements %v, inner %v", in, got, want)
		}
	}
}

// trajectory runs steps NVE steps on a 2×1×1 engine and returns the
// gathered state, the final energy and the engine's Stats.
func trajectory(t *testing.T, sys *md.System, cfg shard.Config, steps int, dt float64) (state []float64, e float64, rebuilds, migrated int64) {
	t.Helper()
	sys = sys.Clone()
	cfg.Grid = [3]int{2, 1, 1}
	eng, err := shard.NewEngine(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	r := eng.Run(0, dt, 0, 0)
	for s := 0; s < steps && r.Err == nil; s++ {
		r = eng.Run(1, dt, 0, 0)
	}
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	eng.GatherAll(sys)
	state = append(append(append(state, sys.X...), sys.V...), sys.F...)
	rebuilds, migrated = eng.Stats()
	return state, r.PE + r.KE, rebuilds, migrated
}

func TestWrappedTrajectoryIsBitwiseBare(t *testing.T) {
	lj, err := md.NewFCCSystem(6, 1.7, 50)
	if err != nil {
		t.Fatal(err)
	}
	lj.InitVelocities(1e-3, 3)
	pto, model := smallAllegro(t)
	for _, tc := range []struct {
		name  string
		sys   *md.System
		cfg   shard.Config
		steps int
		dt    float64
	}{
		{"lj", lj, shard.Config{Cutoff: 2, Skin: 0.3, NewFF: shard.LJFactory(0.01, 1)}, 60, 2},
		{"allegro", pto, shard.Config{Cutoff: 6, Skin: 0.5, NewFF: shard.AllegroFactory(model)}, 20, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bare, eb, rb, mb := trajectory(t, tc.sys, tc.cfg, tc.steps, tc.dt)
			p := newProbe(2)
			wrapped := tc.cfg
			wrapped.NewFF = p.wrapFactory(tc.cfg.NewFF)
			got, ew, rw, mw := trajectory(t, tc.sys, wrapped, tc.steps, tc.dt)
			if err := sameBits("wrapped vs bare", got, bare); err != nil {
				t.Error(err)
			}
			if math.Float64bits(ew) != math.Float64bits(eb) {
				t.Errorf("energy %v wrapped, %v bare", ew, eb)
			}
			if rw != rb || mw != mb {
				t.Errorf("Stats() = (%d, %d) wrapped, (%d, %d) bare", rw, mw, rb, mb)
			}
			if slowest, _ := p.take(); slowest[kKernel] == 0 {
				t.Error("the wrapper timed no force-field call")
			}
		})
	}
}

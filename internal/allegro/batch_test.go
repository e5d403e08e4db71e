package allegro

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mlmd/internal/md"
	"mlmd/internal/par"
	"mlmd/internal/precision"
)

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

// TestBatchedEvalBitwiseMatchesPerAtom is the tentpole contract: at every
// block size and worker count, the blocked-GEMM inference path produces the
// same energy and forces as the per-atom tape path, bit for bit. The
// comparison is per-atom-at-BlockSize-B vs batched-at-BlockSize-B — the
// block loop itself changes the force accumulation grouping (that is the
// seed's documented BlockSize behaviour), so the claim locked down here is
// that swapping per-atom tapes for GEMMs changes nothing.
func TestBatchedEvalBitwiseMatchesPerAtom(t *testing.T) {
	sys := distortedLattice(t)
	for _, workers := range []int{1, 4} {
		prev := par.SetWorkers(workers)
		for _, block := range []int{1, 7, 64, 0} { // 0 = whole system
			m, err := NewModel(testSpec(), []int{10, 10}, 5)
			if err != nil {
				t.Fatal(err)
			}
			m.Mode, m.BlockSize = EvalPerAtom, block
			eRef := m.ComputeForces(sys)
			fRef := append([]float64(nil), sys.F...)

			m.Mode = EvalBatched
			eBat := m.ComputeForces(sys)
			if math.Float64bits(eBat) != math.Float64bits(eRef) {
				t.Errorf("workers=%d block=%d: batched energy %v != per-atom %v",
					workers, block, eBat, eRef)
			}
			for k := range fRef {
				if math.Float64bits(sys.F[k]) != math.Float64bits(fRef[k]) {
					t.Fatalf("workers=%d block=%d: F[%d] = %v != per-atom %v",
						workers, block, k, sys.F[k], fRef[k])
				}
			}
			// Repeat evaluation must also be bitwise stable (scratch reuse).
			eBat2 := m.ComputeForces(sys)
			if math.Float64bits(eBat2) != math.Float64bits(eBat) {
				t.Errorf("workers=%d block=%d: batched rerun energy drifted", workers, block)
			}
		}
		par.SetWorkers(prev)
	}
}

// TestCommitteeBatchedMatchesStandaloneMembers: the committee's shared-gather
// batched path must reproduce, bitwise, each member's standalone batched
// forces and energy — the gather is member-independent and the per-member
// arithmetic is the same code.
func TestCommitteeBatchedMatchesStandaloneMembers(t *testing.T) {
	sys := distortedLattice(t)
	c, err := NewCommittee(testSpec(), []int{8}, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Members {
		m.Mode, m.BlockSize = EvalBatched, 7
	}
	eMean := c.ComputeForces(sys)
	memberF := make([][]float64, len(c.Members))
	for k := range c.Members {
		memberF[k] = append([]float64(nil), c.fBuf[k]...)
	}
	memberE := append([]float64(nil), c.es...)

	var eSum float64
	for k, m := range c.Members {
		e := m.ComputeForces(sys)
		eSum += e
		if math.Float64bits(e) != math.Float64bits(memberE[k]) {
			t.Errorf("member %d: committee energy %v != standalone %v", k, memberE[k], e)
		}
		for i := range sys.F {
			if math.Float64bits(sys.F[i]) != math.Float64bits(memberF[k][i]) {
				t.Fatalf("member %d: committee F[%d] = %v != standalone %v",
					k, i, memberF[k][i], sys.F[i])
			}
		}
	}
	if want := eSum / float64(len(c.Members)); math.Abs(eMean-want) > 1e-12*math.Max(1, math.Abs(want)) {
		t.Errorf("committee mean energy %v, want %v", eMean, want)
	}
	// Disagreement must still work on the reused buffer.
	d := c.Disagreement(sys)
	if len(d) != sys.N {
		t.Fatalf("disagreement length %d, want %d", len(d), sys.N)
	}
}

// TestBatchedMixedTracksFloat64: the GEMMMixed float32 variant is not
// bitwise-comparable, but it must track the float64 result to float32-level
// accuracy for both supported compute modes.
func TestBatchedMixedTracksFloat64(t *testing.T) {
	sys := distortedLattice(t)
	m, err := NewModel(testSpec(), []int{10, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	m.Mode, m.BlockSize = EvalBatched, 0
	eRef := m.ComputeForces(sys)
	fRef := append([]float64(nil), sys.F...)
	var fScale float64 = 1
	for _, v := range fRef {
		if a := math.Abs(v); a > fScale {
			fScale = a
		}
	}
	for _, mode := range []precision.Mode{precision.ModeFP32, precision.ModeBF16x3} {
		m.Mode, m.MixedMode = EvalBatchedMixed, mode
		e := m.ComputeForces(sys)
		if math.Abs(e-eRef) > 1e-4*math.Max(1, math.Abs(eRef)) {
			t.Errorf("%v: mixed energy %v strayed from %v", mode, e, eRef)
		}
		for k := range fRef {
			if math.Abs(sys.F[k]-fRef[k]) > 1e-3*fScale {
				t.Fatalf("%v: mixed F[%d] = %v strayed from %v", mode, k, sys.F[k], fRef[k])
			}
		}
	}
}

// TestBatchedComputeForcesSteadyStateAllocs: after warmup, the batched
// global force path must not allocate — block tapes, gather buffers, and
// GEMM pool bindings are all reused.
func TestBatchedComputeForcesSteadyStateAllocs(t *testing.T) {
	sys := distortedLattice(t)
	m, err := NewModel(testSpec(), []int{10, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	m.Mode, m.BlockSize = EvalBatched, 16
	m.ComputeForces(sys)
	m.ComputeForces(sys)
	if n := testing.AllocsPerRun(20, func() { m.ComputeForces(sys) }); n != 0 {
		t.Errorf("batched ComputeForces allocates %.1f/op in steady state, want 0", n)
	}
}

// TestParseBlockSpec covers the MLMD_ALLEGRO_BLOCK grammar.
func TestParseBlockSpec(t *testing.T) {
	cases := []struct {
		in    string
		mode  EvalMode
		block int
		ok    bool
	}{
		{"", EvalPerAtom, 0, true},
		{"off", EvalPerAtom, 0, true},
		{"atom", EvalPerAtom, 0, true},
		{"0", EvalPerAtom, 0, true},
		{"on", EvalBatched, DefaultBatchBlock, true},
		{"batched", EvalBatched, DefaultBatchBlock, true},
		{"128", EvalBatched, 128, true},
		{"mixed", EvalBatchedMixed, DefaultBatchBlock, true},
		{"mixed:64", EvalBatchedMixed, 64, true},
		{" Batched ", EvalBatched, DefaultBatchBlock, true},
		{"-3", EvalPerAtom, 0, false},
		{"mixed:0", EvalPerAtom, 0, false},
		{"banana", EvalPerAtom, 0, false},
	}
	for _, tc := range cases {
		mode, block, err := ParseBlockSpec(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseBlockSpec(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && (mode != tc.mode || block != tc.block) {
			t.Errorf("ParseBlockSpec(%q) = %v,%d want %v,%d", tc.in, mode, block, tc.mode, tc.block)
		}
	}
	for _, tc := range []struct {
		mode EvalMode
		want string
	}{
		{EvalPerAtom, "per-atom"}, {EvalBatched, "batched"},
		{EvalBatchedMixed, "batched-mixed"}, {EvalMode(9), "EvalMode(9)"},
	} {
		if got := tc.mode.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", int(tc.mode), got, tc.want)
		}
	}
}

// TestSetEvalDefaults: the flag override wins over the environment and is
// applied by NewModel.
func TestSetEvalDefaults(t *testing.T) {
	defer func() {
		evalDefaultsSet = false
	}()
	SetEvalDefaults(EvalBatched, 33)
	m, err := NewModel(testSpec(), []int{4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode != EvalBatched || m.BlockSize != 33 {
		t.Errorf("NewModel defaults = %v,%d want batched,33", m.Mode, m.BlockSize)
	}
	evalDefaultsSet = false
	t.Setenv("MLMD_ALLEGRO_BLOCK", "mixed:12")
	m2, err := NewModel(testSpec(), []int{4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Mode != EvalBatchedMixed || m2.BlockSize != 12 {
		t.Errorf("env defaults = %v,%d want batched-mixed,12", m2.Mode, m2.BlockSize)
	}
}

// TestNewModelEvalSpecFromEnv: NewModel applies a well-formed
// MLMD_ALLEGRO_BLOCK and fails on a malformed one with an error naming the
// variable and the value (no silent per-atom fallback).
func TestNewModelEvalSpecFromEnv(t *testing.T) {
	evalDefaultsSet = false
	for _, tc := range []struct {
		spec  string
		mode  EvalMode
		block int
		bad   bool
	}{
		{spec: "", mode: EvalPerAtom},
		{spec: "off", mode: EvalPerAtom},
		{spec: "0", mode: EvalPerAtom},
		{spec: " Batched ", mode: EvalBatched, block: DefaultBatchBlock},
		{spec: "16", mode: EvalBatched, block: 16},
		{spec: "mixed:8", mode: EvalBatchedMixed, block: 8},
		{spec: "sixteen", bad: true},
		{spec: "-4", bad: true},
		{spec: "1.5", bad: true},
		{spec: "mixed:0", bad: true},
		{spec: "mixed:x", bad: true},
	} {
		t.Setenv("MLMD_ALLEGRO_BLOCK", tc.spec)
		m, err := NewModel(testSpec(), []int{4}, 1)
		if tc.bad {
			if err == nil {
				t.Errorf("MLMD_ALLEGRO_BLOCK=%q: NewModel succeeded (mode %v), want an error", tc.spec, m.Mode)
			} else if msg := err.Error(); !strings.Contains(msg, "MLMD_ALLEGRO_BLOCK") || !strings.Contains(msg, fmt.Sprintf("%q", tc.spec)) {
				t.Errorf("MLMD_ALLEGRO_BLOCK=%q: error %q does not name the variable and value", tc.spec, msg)
			}
			continue
		}
		if err != nil {
			t.Errorf("MLMD_ALLEGRO_BLOCK=%q: %v", tc.spec, err)
			continue
		}
		if m.Mode != tc.mode || m.BlockSize != tc.block {
			t.Errorf("MLMD_ALLEGRO_BLOCK=%q: got %v,%d want %v,%d", tc.spec, m.Mode, m.BlockSize, tc.mode, tc.block)
		}
	}
}

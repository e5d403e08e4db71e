package mlmdio

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mlmd/internal/allegro"
	"mlmd/internal/ferro"
	"mlmd/internal/grid"
	"mlmd/internal/md"
	"mlmd/internal/nn"
)

func TestXYZRoundTrip(t *testing.T) {
	sys, _, err := ferro.NewLattice(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteXYZ(&buf, sys, "step=1"); err != nil {
		t.Fatal(err)
	}
	names, xyz, err := ReadXYZ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != sys.N {
		t.Fatalf("read %d atoms, want %d", len(names), sys.N)
	}
	if names[0] != "Pb" || names[1] != "Ti" || names[2] != "O" {
		t.Errorf("species names wrong: %v", names[:5])
	}
	for i := range xyz {
		if math.Abs(xyz[i]-sys.X[i]) > 1e-6 {
			t.Fatalf("coordinate %d: %g vs %g", i, xyz[i], sys.X[i])
		}
	}
}

func TestReadXYZErrors(t *testing.T) {
	cases := []string{
		"",
		"abc\ncomment\n",
		"2\ncomment\nH 0 0 0\n",    // truncated
		"1\ncomment\nH 0 zero 0\n", // bad coordinate
		"1\ncomment\nH 0 0\n",      // short line
	}
	for _, c := range cases {
		if _, _, err := ReadXYZ(strings.NewReader(c)); err == nil {
			t.Errorf("bad input accepted: %q", c)
		}
	}
}

func TestSystemCheckpointRoundTrip(t *testing.T) {
	sys, _ := md.NewSystem(10, 5, 6, 7)
	rng := rand.New(rand.NewSource(1))
	for i := range sys.X {
		sys.X[i] = rng.Float64() * 5
		sys.V[i] = rng.NormFloat64()
		sys.F[i] = rng.NormFloat64()
	}
	for i := range sys.Mass {
		sys.Mass[i] = 1 + rng.Float64()
		sys.Type[i] = i % 3
	}
	var buf bytes.Buffer
	if err := SaveSystem(&buf, sys); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != sys.N || got.Lx != sys.Lx || got.Lz != sys.Lz {
		t.Fatal("geometry not preserved")
	}
	for i := range sys.X {
		if got.X[i] != sys.X[i] || got.V[i] != sys.V[i] || got.F[i] != sys.F[i] {
			t.Fatal("state not preserved")
		}
	}
	for i := range sys.Mass {
		if got.Mass[i] != sys.Mass[i] || got.Type[i] != sys.Type[i] {
			t.Fatal("atom metadata not preserved")
		}
	}
}

func TestWaveFieldCheckpointRoundTrip(t *testing.T) {
	g := grid.New(4, 6, 8, 0.5, 0.6, 0.7)
	w := grid.NewWaveField(g, 3, grid.LayoutSoA)
	for i := range w.Data {
		w.Data[i] = complex(float64(i), -float64(i)/2)
	}
	var buf bytes.Buffer
	if err := SaveWaveField(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWaveField(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.G != w.G || got.Norb != w.Norb || got.Layout != w.Layout {
		t.Fatal("field shape not preserved")
	}
	for i := range w.Data {
		if got.Data[i] != w.Data[i] {
			t.Fatal("amplitudes not preserved")
		}
	}
}

func TestModelCheckpointRoundTrip(t *testing.T) {
	spec := allegro.DescriptorSpec{Cutoff: 6, NRadial: 4, NSpecies: 3}
	m, err := allegro.NewModel(spec, []int{8, 8}, 11)
	if err != nil {
		t.Fatal(err)
	}
	m.PerSpeciesShift[1] = -0.5
	m.BlockSize = 64
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded model must predict identically.
	sys, _, err2 := ferro.NewLattice(2, 2, 1)
	if err2 != nil {
		t.Fatal(err2)
	}
	e1 := m.Energy(sys)
	e2 := got.Energy(sys)
	if math.Abs(e1-e2) > 1e-12 {
		t.Errorf("reloaded model energy %g != original %g", e2, e1)
	}
	if got.BlockSize != 64 || got.PerSpeciesShift[1] != -0.5 {
		t.Error("model metadata not preserved")
	}
}

// TestLoadModelRejectsBadFields: a checkpoint whose activation code is not
// one of nn's activations, or whose BlockSize is negative, is refused with
// an error naming the field and its value — neither may silently run as
// something else (an unknown activation as Linear, a negative block size as
// no blocking). In-range values of both fields load.
func TestLoadModelRejectsBadFields(t *testing.T) {
	var base modelCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(validModelCheckpoint(t))).Decode(&base); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		act, block int
		want       string // "" = accepted
	}{
		{act: int(nn.Tanh)},
		{act: int(nn.SiLU), block: 5},
		{act: int(nn.Linear)},
		{act: 7, want: "Act=7"},
		{act: -1, want: "Act=-1"},
		{act: int(nn.SiLU), block: -1, want: "BlockSize=-1"},
		{act: int(nn.SiLU), block: -64, want: "BlockSize=-64"},
	} {
		cp := base
		cp.Act, cp.BlockSize = tc.act, tc.block
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
			t.Fatal(err)
		}
		m, err := LoadModel(&buf)
		if tc.want == "" {
			if err != nil {
				t.Errorf("Act=%d BlockSize=%d: %v", tc.act, tc.block, err)
			} else if m.Nets[0].Act != nn.Activation(tc.act) || m.BlockSize != tc.block {
				t.Errorf("Act=%d BlockSize=%d: loaded Act=%d BlockSize=%d", tc.act, tc.block, m.Nets[0].Act, m.BlockSize)
			}
			continue
		}
		if err == nil {
			t.Errorf("Act=%d BlockSize=%d: checkpoint accepted, want an error naming %s", tc.act, tc.block, tc.want)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Act=%d BlockSize=%d: error %q does not name %s", tc.act, tc.block, err, tc.want)
		}
	}
}

func TestLoadErrorsOnGarbage(t *testing.T) {
	if _, err := LoadSystem(strings.NewReader("not a gob")); err == nil {
		t.Error("garbage system accepted")
	}
	if _, err := LoadWaveField(strings.NewReader("junk")); err == nil {
		t.Error("garbage field accepted")
	}
	if _, err := LoadModel(strings.NewReader("junk")); err == nil {
		t.Error("garbage model accepted")
	}
}

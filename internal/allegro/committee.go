package allegro

import (
	"fmt"
	"math"

	"mlmd/internal/md"
)

// Committee is an ensemble of independently initialized (and trained)
// models. The mean prediction is the working force; the member
// disagreement is a per-atom uncertainty estimate — the trigger signal of
// the adaptive multiscale embedding (Sec. V.A.8: high fidelity "only where
// and when it is called for").
type Committee struct {
	Members []*Model
	fBuf    [][]float64
	dBuf    []float64
}

// NewCommittee builds n models sharing spec and hidden sizes but with
// different weight seeds.
func NewCommittee(spec DescriptorSpec, hidden []int, n int, seed int64) (*Committee, error) {
	if n < 2 {
		return nil, fmt.Errorf("allegro: committee needs >= 2 members, got %d", n)
	}
	c := &Committee{}
	for k := 0; k < n; k++ {
		m, err := NewModel(spec, hidden, seed+int64(k)*104729)
		if err != nil {
			return nil, err
		}
		c.Members = append(c.Members, m)
	}
	return c, nil
}

// Train fits every member on the same samples (bagging by seed: the
// members differ in initialization and batch order).
func (c *Committee) Train(template *md.System, samples []Sample, cfg TrainConfig) error {
	for k, m := range c.Members {
		memberCfg := cfg
		memberCfg.Seed = cfg.Seed + int64(k)*7
		if _, err := m.Train(template, samples, memberCfg); err != nil {
			return fmt.Errorf("allegro: committee member %d: %w", k, err)
		}
	}
	return nil
}

// ComputeForces implements md.ForceField with the committee mean: each
// member evaluates the system in turn, and the mean energy and forces are
// reduced in member order.
func (c *Committee) ComputeForces(sys *md.System) float64 {
	if len(c.fBuf) != len(c.Members) {
		c.fBuf = make([][]float64, len(c.Members))
	}
	n := float64(len(c.Members))
	var eMean float64
	for k, m := range c.Members {
		e := m.ComputeForces(sys)
		eMean += e
		if len(c.fBuf[k]) != len(sys.F) {
			c.fBuf[k] = make([]float64, len(sys.F))
		}
		copy(c.fBuf[k], sys.F)
	}
	eMean /= n
	for i := range sys.F {
		var sum float64
		for k := range c.Members {
			sum += c.fBuf[k][i]
		}
		sys.F[i] = sum / n
	}
	return eMean
}

// Disagreement returns the per-atom committee spread after the last
// ComputeForces call: the RMS over members of the deviation of the member
// force from the mean, reduced over components. The returned slice is a
// reused internal buffer, valid until the next Disagreement call.
func (c *Committee) Disagreement(sys *md.System) []float64 {
	if cap(c.dBuf) < sys.N {
		c.dBuf = make([]float64, sys.N)
	}
	out := c.dBuf[:sys.N]
	n := float64(len(c.Members))
	for i := 0; i < sys.N; i++ {
		var varSum float64
		for d := 0; d < 3; d++ {
			k := 3*i + d
			var mean float64
			for m := range c.Members {
				mean += c.fBuf[m][k]
			}
			mean /= n
			for m := range c.Members {
				dev := c.fBuf[m][k] - mean
				varSum += dev * dev
			}
		}
		out[i] = math.Sqrt(varSum / (3 * n))
	}
	return out
}

// MaxDisagreement returns the largest per-atom spread.
func (c *Committee) MaxDisagreement(sys *md.System) float64 {
	var worst float64
	for _, v := range c.Disagreement(sys) {
		if v > worst {
			worst = v
		}
	}
	return worst
}

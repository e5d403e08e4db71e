package main

import (
	"time"

	"mlmd/internal/shard"
	"mlmd/internal/shard/halo"
)

// Timing kinds a rank clock accumulates within one step call.
const (
	// kKernel is every force-field call (RankFF/BlockFF/TwoPhaseFF
	// methods) or, on the grid engine, the rank's GridWorkload.Step.
	kKernel = iota
	// kPhase1 is the two-phase phase one (PhaseOne, PhaseOneRange,
	// PhaseOneFinish); it is also counted in kKernel.
	kPhase1
	// kPhase2 is the two-phase PhaseTwo; it is also counted in kKernel.
	kPhase2
	nKinds
)

// clock is one rank's time inside the wrapped program calls since the
// benchmark last took it. Only the rank's own goroutine writes it, and the
// benchmark reads it only after the engine call that ran the rank returned.
// It fills a cache line so neighbouring ranks never share one.
type clock struct {
	ns [8]int64
}

func (c *clock) add(kind int, t0 time.Time) {
	c.ns[kind] += int64(time.Since(t0))
}

// addPhase charges the time since t0 to a two-phase phase and to kKernel.
func (c *clock) addPhase(phase int, t0 time.Time) {
	d := int64(time.Since(t0))
	c.ns[phase] += d
	c.ns[kKernel] += d
}

// probe holds the rank clocks of one traced engine.
type probe struct {
	ranks []clock
}

func newProbe(ranks int) *probe { return &probe{ranks: make([]clock, ranks)} }

// take returns, per kind, the slowest rank's and the mean rank's time since
// the last take, and zeroes the clocks.
func (p *probe) take() (slowest, mean [nKinds]time.Duration) {
	for r := range p.ranks {
		for k := 0; k < nKinds; k++ {
			d := time.Duration(p.ranks[r].ns[k])
			if d > slowest[k] {
				slowest[k] = d
			}
			mean[k] += d
		}
		p.ranks[r] = clock{}
	}
	for k := range mean {
		mean[k] /= time.Duration(len(p.ranks))
	}
	return slowest, mean
}

// wrapFactory wraps a shard.Config.NewFF so every rank's force field
// reports its time to the rank's clock.
func (p *probe) wrapFactory(newFF func(int) shard.RankFF) func(int) shard.RankFF {
	return func(rank int) shard.RankFF { return wrapFF(newFF(rank), &p.ranks[rank]) }
}

// wrapWork wraps a shard.GridConfig.NewWork so every rank's Step reports
// its time to the rank's clock.
func (p *probe) wrapWork(newWork func(int, halo.Domain) (shard.GridWorkload, error)) func(int, halo.Domain) (shard.GridWorkload, error) {
	return func(rank int, d halo.Domain) (shard.GridWorkload, error) {
		w, err := newWork(rank, d)
		if err != nil {
			return nil, err
		}
		return timedWork{GridWorkload: w, c: &p.ranks[rank]}, nil
	}
}

// timedWork times GridWorkload.Step. Embedding the interface exposes
// exactly its method set; the grid engine asserts no optional interfaces.
type timedWork struct {
	shard.GridWorkload
	c *clock
}

func (w timedWork) Step(ex *halo.Exchanger) {
	t0 := time.Now()
	w.GridWorkload.Step(ex)
	w.c.add(kKernel, t0)
}

// wrapFF returns a timing wrapper around in that implements exactly the
// optional force-field interfaces in implements (BlockFF, TwoPhaseFF,
// TwoPhaseSplitFF): the engine picks its evaluation path by asserting
// them, so a wrapper with a different set would silently measure another
// path.
func wrapFF(in shard.RankFF, c *clock) shard.RankFF {
	base := ffBase{in, c}
	blk, isBlock := in.(shard.BlockFF)
	two, isTwo := in.(shard.TwoPhaseFF)
	split, isSplit := in.(shard.TwoPhaseSplitFF)
	b, t, s := ffBlock{blk, c}, ffTwo{two, c}, ffSplit{split, c}
	switch {
	case isBlock && isSplit:
		return struct {
			ffBase
			ffBlock
			ffTwo
			ffSplit
		}{base, b, t, s}
	case isBlock && isTwo:
		return struct {
			ffBase
			ffBlock
			ffTwo
		}{base, b, t}
	case isBlock:
		return struct {
			ffBase
			ffBlock
		}{base, b}
	case isSplit:
		return struct {
			ffBase
			ffTwo
			ffSplit
		}{base, t, s}
	case isTwo:
		return struct {
			ffBase
			ffTwo
		}{base, t}
	default:
		return base
	}
}

// ffBase forwards shard.RankFF, timing Compute.
type ffBase struct {
	in shard.RankFF
	c  *clock
}

func (f ffBase) PartialLen() int         { return f.in.PartialLen() }
func (f ffBase) NeedsNeighborList() bool { return f.in.NeedsNeighborList() }

func (f ffBase) Compute(v *shard.View, partial []float64) {
	t0 := time.Now()
	f.in.Compute(v, partial)
	f.c.add(kKernel, t0)
}

func (f ffBase) Energy(v *shard.View, total []float64) float64 { return f.in.Energy(v, total) }

// ffBlock forwards shard.BlockFF.
type ffBlock struct {
	in shard.BlockFF
	c  *clock
}

func (f ffBlock) ComputeBlock(v *shard.View, lo, hi int, partial []float64) {
	t0 := time.Now()
	f.in.ComputeBlock(v, lo, hi, partial)
	f.c.add(kKernel, t0)
}

// ffTwo forwards shard.TwoPhaseFF.
type ffTwo struct {
	in shard.TwoPhaseFF
	c  *clock
}

func (f ffTwo) AuxLen() int { return f.in.AuxLen() }

func (f ffTwo) PhaseOne(v *shard.View, aux, partial []float64) {
	t0 := time.Now()
	f.in.PhaseOne(v, aux, partial)
	f.c.addPhase(kPhase1, t0)
}

func (f ffTwo) PhaseTwo(v *shard.View, aux []float64, lo, hi int) {
	t0 := time.Now()
	f.in.PhaseTwo(v, aux, lo, hi)
	f.c.addPhase(kPhase2, t0)
}

// ffSplit forwards the methods shard.TwoPhaseSplitFF adds to TwoPhaseFF.
type ffSplit struct {
	in shard.TwoPhaseSplitFF
	c  *clock
}

func (f ffSplit) PhaseOneRange(v *shard.View, aux []float64, lo, hi int) {
	t0 := time.Now()
	f.in.PhaseOneRange(v, aux, lo, hi)
	f.c.addPhase(kPhase1, t0)
}

func (f ffSplit) PhaseOneFinish(v *shard.View, partial []float64) {
	t0 := time.Now()
	f.in.PhaseOneFinish(v, partial)
	f.c.addPhase(kPhase1, t0)
}

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// tally counts operations: set-ups, step calls, checkpoint writes, state
// gathers and state comparisons. An operation fails on an error, a
// non-finite observable or a failed output check.
type tally struct {
	attempted, failed int
}

func (t *tally) op(what string, err error) error {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "mlmdbench: %s failed: %v\n", what, err)
		}
	}
	return err
}

// stepRec is one timed step call.
type stepRec struct {
	wall time.Duration
	// ckpt is the checkpoint write that followed the step, if any.
	ckpt    time.Duration
	rebuild bool // the engine rebuilt its decomposition during the step
	// slowest and mean are the rank clocks of a traced step.
	slowest, mean [nKinds]time.Duration
}

// allocRec is the heap allocation count of one prefix step.
type allocRec struct {
	mallocs uint64
	rebuild bool
}

// session is what one driven instance yields.
type session struct {
	prefix counters // counter deltas over the prefix
	state  []float64
	allocs []allocRec // per prefix step, when probed
	steps  []stepRec
	ckpts  []ckptRec
	gcs    uint32 // GC cycles during the timed loop
}

// driveOpts selects what a session measures beyond step times.
type driveOpts struct {
	seconds     float64
	probeAllocs bool   // read MemStats around every prefix step
	probe       *probe // traced: take the rank clocks after every step
	stepProfile string // traced: CPU profile of the timed loop
}

// setUp constructs one instance and runs its warm-up steps: the set-up
// time a user pays before the first timed step.
func setUp(w *workload, c openCfg, t *tally) (instance, time.Duration, error) {
	t0 := time.Now()
	inst, err := w.open(c)
	if t.op("set-up", err) != nil {
		return nil, 0, err
	}
	for i := 0; i < w.warmup; i++ {
		if err := advance(inst, t); err != nil {
			inst.close()
			return nil, 0, err
		}
	}
	return inst, time.Since(t0), nil
}

// timedStep times one step call, then checks its observables (untimed).
func timedStep(inst instance, t *tally) (time.Duration, error) {
	t0 := time.Now()
	err := inst.step()
	d := time.Since(t0)
	if err == nil {
		err = inst.check()
	}
	return d, t.op("step", err)
}

// checkpointIfDue writes the checkpoint that falls due after a step, if
// the instance writes checkpoints, and appends its record to ck.
func checkpointIfDue(inst instance, t *tally, ck *[]ckptRec) error {
	c, ok := inst.(checkpointer)
	if !ok || !c.checkpointDue() {
		return nil
	}
	r, err := c.checkpoint()
	if t.op("checkpoint", err) != nil {
		return err
	}
	*ck = append(*ck, r)
	return nil
}

// advance is one untimed step plus its due checkpoint.
func advance(inst instance, t *tally) error {
	if _, err := timedStep(inst, t); err != nil {
		return err
	}
	var ck []ckptRec
	return checkpointIfDue(inst, t, &ck)
}

// drive runs the prefix and the timed closed loop on a set-up instance:
// each step call is issued only after the previous one returned.
func drive(w *workload, inst instance, o driveOpts, t *tally) (*session, error) {
	s := &session{}
	var mem runtime.MemStats
	c0 := inst.counters()
	for i := 0; i < w.prefix; i++ {
		if !o.probeAllocs {
			if err := advance(inst, t); err != nil {
				return nil, err
			}
			continue
		}
		// Count the heap allocations of the step call alone.
		rb := inst.counters().rebuilds
		runtime.ReadMemStats(&mem)
		m0 := mem.Mallocs
		err := inst.step()
		runtime.ReadMemStats(&mem)
		s.allocs = append(s.allocs, allocRec{mem.Mallocs - m0, inst.counters().rebuilds > rb})
		if err == nil {
			err = inst.check()
		}
		if t.op("step", err) != nil {
			return nil, err
		}
		var ck []ckptRec
		if err := checkpointIfDue(inst, t, &ck); err != nil {
			return nil, err
		}
	}
	s.prefix = inst.counters().sub(c0)
	st, err := inst.state()
	if t.op("gather state", err) != nil {
		return nil, err
	}
	s.state = st

	runtime.ReadMemStats(&mem)
	gc0 := mem.NumGC
	if o.probe != nil {
		o.probe.take()
	}
	if o.stepProfile != "" {
		stop, err := startProfile(o.stepProfile)
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < budget {
		n := len(s.ckpts)
		rb := int64(0)
		if o.probe != nil {
			rb = inst.counters().rebuilds
		}
		d, err := timedStep(inst, t)
		if err == nil {
			err = checkpointIfDue(inst, t, &s.ckpts)
		}
		if err != nil {
			return nil, err
		}
		r := stepRec{wall: d}
		for _, c := range s.ckpts[n:] {
			r.ckpt += c.total
		}
		if o.probe != nil {
			r.rebuild = inst.counters().rebuilds > rb
			r.slowest, r.mean = o.probe.take()
		}
		s.steps = append(s.steps, r)
	}
	runtime.ReadMemStats(&mem)
	s.gcs = mem.NumGC - gc0
	return s, nil
}

// startProfile starts a CPU profile into path and returns its stop.
func startProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// reference runs a 1×1×1 instance of w for the set-up and prefix steps and
// returns its gathered state.
func reference(w *workload, seed int64, dir string, t *tally) ([]float64, error) {
	inst, _, err := setUp(w, openCfg{seed: seed, grid: [3]int{1, 1, 1}, dir: dir}, t)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	for i := 0; i < w.prefix; i++ {
		if err := advance(inst, t); err != nil {
			return nil, err
		}
	}
	st, err := inst.state()
	if t.op("gather state", err) != nil {
		return nil, err
	}
	return st, nil
}

// sameBits compares two gathered states bit for bit.
func sameBits(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: state lengths %d and %d differ", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s: state differs at element %d: %v vs %v", what, i, a[i], b[i])
		}
	}
	return nil
}

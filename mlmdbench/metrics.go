package main

import (
	"bytes"
	"fmt"
	"math"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, printed on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"step_ms_p50", "ms"},
	{"step_ms_p90", "ms"},
	{"t2s_s", "s"},
	{"live_heap_mb", "MB"},
}

// cpuLayers are the packages whose CPU self-time shares the traced run
// reports; "other" is every remaining package, so the shares sum to 1.
var cpuLayers = []string{
	"core", "tddft", "grid", "linalg", "precision", "maxwell", "sh", "par", "md",
	"allegro", "nn", "shard", "halo", "cluster", "mlmdio", "runtime", "other",
}

// perLayer are the traced run's metrics, printed on every workload (0 where
// the workload does not run the layer).
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l, "ratio"})
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"setup_cpu." + l, "ratio"})
	}
	return append(defs,
		metricDef{"runtime.allocs_per_step_steady", "count"},
		metricDef{"runtime.allocs_per_step_rebuild", "count"},
		metricDef{"runtime.gc_per_1k_steps", "count"},
		metricDef{"tracing.overhead_frac", "ratio"},
		metricDef{"linalg.gflop_per_step", "GFLOP"},
		metricDef{"linalg.gflops", "GFLOP/s"},
		metricDef{"dcmesh.norm_drift", "ratio"},
		metricDef{"dcmesh.n_exc", "count"},
		metricDef{"allegro.phase1_ms", "ms"},
		metricDef{"allegro.phase2_ms", "ms"},
		metricDef{"shard.steady_step_ms", "ms"},
		metricDef{"shard.rebuild_step_ms", "ms"},
		metricDef{"shard.rebuild_frac", "ratio"},
		metricDef{"shard.migrated_per_step", "count"},
		metricDef{"ff.kernel_ms", "ms"},
		metricDef{"shard.overhead_ms", "ms"},
		metricDef{"shard.rank_imbalance", "ratio"},
		metricDef{"cluster.modeled_comm_us_per_step", "us"},
		metricDef{"shard.gather_ms", "ms"},
		metricDef{"mlmdio.write_ms", "ms"},
		metricDef{"mlmdio.ckpt_bytes", "B"},
		metricDef{"maxwell.rank_step_ms", "ms"},
		metricDef{"shard.grid_overhead_ms", "ms"},
		metricDef{"halo.bytes_per_step", "B"},
		metricDef{"shard.new_engine_ms", "ms"},
		metricDef{"shard.prime_ms", "ms"},
		metricDef{"bench.timed_steps", "count"},
	)
}()

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median is the middle value of xs (the mean of the middle two for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailQuantile is the highest quantile up to 0.9 with at least ten samples
// beyond it: p90 from 100 samples on, lower below.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 1
	}
	return math.Min(0.9, float64(n-10)/float64(n))
}

// tailChunkMin is the fewest steps a tail chunk holds, so that each chunk
// has its p90 with ten samples beyond it.
const tailChunkMin = 100

// chunkTail cuts the step times into up to t2sChunks consecutive chunks of
// at least tailChunkMin steps (one chunk when there are fewer) and returns
// the median over the chunks of the chunk's tailQuantile, and that
// quantile for a chunk of the size used. Like chunkT2S, the median
// discounts a burst of interference on a shared host: the whole run's p90
// moves with how many of its steps a burst caught.
func chunkTail(stepMs []float64) (tail, q float64) {
	k := max(1, min(t2sChunks, len(stepMs)/tailChunkMin))
	size := len(stepMs) / k
	var per []float64
	for lo := 0; lo+size <= len(stepMs) && len(per) < k; lo += size {
		c := append([]float64(nil), stepMs[lo:lo+size]...)
		per = append(per, quantile(c, tailQuantile(size)))
	}
	return median(per), tailQuantile(size)
}

// stepMs returns the wall times in ms of the steps keep accepts (all of
// them when keep is nil).
func stepMs(steps []stepRec, keep func(stepRec) bool) []float64 {
	var xs []float64
	for _, s := range steps {
		if keep == nil || keep(s) {
			xs = append(xs, ms(s.wall))
		}
	}
	return xs
}

// t2sChunks is how many consecutive chunks of timed steps t2s is taken
// over: the median chunk discounts a burst of interference on a shared
// host, which the mean over the whole loop would absorb.
const t2sChunks = 20

// chunkT2S is the median over t2sChunks chunks of the chunk's wall time (step
// calls plus checkpoint writes) per step and work unit, and the total
// timed wall time.
func chunkT2S(steps []stepRec, units float64) (perUnit float64, wall time.Duration) {
	size := max(1, len(steps)/t2sChunks)
	var per []float64
	for lo := 0; lo+size <= len(steps); lo += size {
		var w time.Duration
		for _, s := range steps[lo : lo+size] {
			w += s.wall + s.ckpt
		}
		wall += w
		per = append(per, w.Seconds()/(float64(size)*units))
	}
	for _, s := range steps[len(per)*size:] {
		wall += s.wall + s.ckpt
	}
	return median(per), wall
}

// cpuShares runs go tool pprof on a CPU profile and returns each layer's
// share of the profile's samples by self time.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-noinlines", profile)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	shares := map[string]float64{}
	rows := false
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: bad row %q", line)
		}
		shares[layerOf(f[5])] += pct / 100
	}
	return shares, nil
}

// layerOf maps a profiled function name to its reporting layer.
func layerOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "mlmd/internal/"):
		parts := strings.Split(strings.TrimPrefix(pkg, "mlmd/internal/"), "/")
		for i := len(parts) - 1; i >= 0; i-- {
			for _, l := range cpuLayers {
				if parts[i] == l {
					return l
				}
			}
		}
	}
	return "other"
}

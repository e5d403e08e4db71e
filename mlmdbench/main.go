// Command mlmdbench is the mlmd benchmark: it drives one of four workloads
// through the packages' public entry points in a closed loop and prints
// its end-to-end metrics (untraced run) or its per-layer breakdown (traced
// run) as the last line of standard output. README.md documents the
// workloads and every metric. Run it through run.sh from the root of a
// checkout:
//
//	bash mlmdbench/run.sh --workload nnqmd-pto --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload in turn, printing one result line
// each, and exits non-zero if any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mlmd/internal/bench"
)

// An untraced run sets its workload up at least minSetups times and until
// setupBudget has passed, at most maxSetups times; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// scratchRoot holds checkpoints and profiles, inside the checkout.
const scratchRoot = ".bench_build"

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: dcmesh-pulse, nnqmd-pto, lj-melt, fdtd-grid, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "timed seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	ws := workloads
	var err error
	if *name != "all" {
		var w *workload
		w, err = findWorkload(*name)
		ws = []*workload{w}
	}
	if err == nil && (*trace < 0 || *trace > 1 || *seconds <= 0) {
		err = fmt.Errorf("need --trace 0 or 1 and --seconds > 0")
	}
	if err == nil {
		err = checkEnv()
	}
	if err == nil {
		err = os.MkdirAll(scratchRoot, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlmdbench:", err)
		return 2
	}
	fmt.Printf("# host %s\n", hostFingerprint())
	code := 0
	for _, w := range ws {
		code = max(code, runWorkload(w, *seed, *seconds, *trace == 1))
	}
	return code
}

// runWorkload measures one workload and prints its result line. It returns
// the exit code: 0, 1 when an operation failed, 2 on a benchmark-side error.
func runWorkload(w *workload, seed int64, seconds float64, trace bool) int {
	dir, err := os.MkdirTemp(scratchRoot, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlmdbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	fmt.Printf("# workload %s seed %d seconds %g traced %t\n", w.name, seed, seconds, trace)
	t := &tally{}
	var m map[string]float64
	defs := endToEnd
	if trace {
		m, err = traced(w, seed, seconds, dir, t)
		defs = perLayer
	} else {
		m, err = measure(w, seed, seconds, dir, t)
	}
	if err != nil && t.failed == 0 {
		// A benchmark-side failure (profile, pprof), not a program one.
		fmt.Fprintln(os.Stderr, "mlmdbench:", err)
		return 2
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, map[string]map[string]any{}}
	for _, d := range defs {
		out.Metrics[d.name] = map[string]any{"value": m[d.name], "unit": d.unit}
	}
	fmt.Printf("# ops_failed_frac %g (%d of %d operations)\n", float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlmdbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// checkEnv refuses the environment variables that change the program's
// defaults: the benchmark measures the defaults.
func checkEnv() error {
	for _, v := range []string{"MLMD_WORKERS", "MLMD_ALLEGRO_BLOCK"} {
		if val, ok := os.LookupEnv(v); ok {
			return fmt.Errorf("%s is set (%q): the benchmark measures the defaults, unset it", v, val)
		}
	}
	return nil
}

// hostFingerprint names the CPU model, CPU count, GOMAXPROCS and Go
// version every result was measured with.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// measure is the untraced run: set up several times, time the closed
// loop, check the outputs, and return the end-to-end metrics.
func measure(w *workload, seed int64, seconds float64, dir string, t *tally) (map[string]float64, error) {
	c := openCfg{seed: seed, grid: w.grid, dir: dir}
	var setupS []float64
	var inst instance
	start := time.Now()
	for inst == nil {
		in, d, err := setUp(w, c, t)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		n := len(setupS)
		if n >= maxSetups || n >= minSetups && time.Since(start) >= setupBudget {
			inst = in
		} else {
			in.close()
		}
	}
	defer inst.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s, err := drive(w, inst, driveOpts{seconds: seconds}, t)
	if err != nil {
		return nil, err
	}
	if w.grid != [3]int{} {
		ref, err := reference(w, seed, dir, t)
		if err != nil {
			return nil, err
		}
		if t.op("1x1x1 comparison", sameBits("2x1x1 vs 1x1x1", s.state, ref)) != nil {
			return nil, fmt.Errorf("decomposition changed the trajectory")
		}
	}

	steps := stepMs(s.steps, nil)
	tail, q := chunkTail(steps)
	perUnit, wall := chunkT2S(s.steps, inst.unitsPerStep())
	m := map[string]float64{
		"setup_s":      median(setupS),
		"step_ms_p50":  median(steps),
		"step_ms_p90":  tail,
		"t2s_s":        perUnit,
		"live_heap_mb": float64(mem.HeapAlloc) / 1e6,
	}
	fmt.Printf("# %d timed steps, %d checkpoints, %.3f s timed; step_ms_p90 is the median chunk's p%.1f; t2s_s is s per %s\n",
		len(s.steps), len(s.ckpts), wall.Seconds(), 100*q, w.unit)
	fmt.Printf("# setup_s over %d set-ups: %v\n", len(setupS), setupS)
	fmt.Printf("# output check: %s\n", inst.health())
	perSec := 1 / perUnit
	switch w.name {
	case "dcmesh-pulse":
		modeled, _ := bench.Table1Numbers()
		fmt.Printf("# t2s_electron_s measured %.4g s/(electron·QD step) on this host; modeled Table I (Aurora) %.4g\n", perUnit, modeled)
	case "nnqmd-pto":
		fmt.Printf("# t2s_atom_weight_s measured %.4g s/(atom·weight·MD step) on this host; modeled Table II (Aurora) %.4g\n", perUnit, bench.Table2Numbers())
		fmt.Printf("# atom_steps_per_s %.6g\n", perSec*float64(len(s.state)/9)/inst.unitsPerStep())
	case "lj-melt":
		fmt.Printf("# atom_steps_per_s %.6g\n", perSec)
	case "fdtd-grid":
		fmt.Printf("# cell_updates_per_s %.6g\n", perSec)
	}
	return m, nil
}

// traced is the traced run: an untraced instance gives the baseline step
// time, the allocation counts and the reference state; a traced instance
// (timing wrappers, spans and CPU profiles) gives the layer breakdown.
// Each instance is timed for half of seconds.
func traced(w *workload, seed int64, seconds float64, dir string, t *tally) (map[string]float64, error) {
	m := map[string]float64{}
	c := openCfg{seed: seed, grid: w.grid, dir: dir}

	// Untraced baseline.
	inst, _, err := setUp(w, c, t)
	if err != nil {
		return nil, err
	}
	a, err := drive(w, inst, driveOpts{seconds: seconds / 2, probeAllocs: true}, t)
	inst.close()
	if err != nil {
		return nil, err
	}

	// Traced instance.
	ranks := max(1, w.grid[0]*w.grid[1]*w.grid[2])
	c.probe = newProbe(ranks)
	profDir := filepath.Join(scratchRoot, "profiles")
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return nil, err
	}
	setupProf := filepath.Join(profDir, w.name+"-setup.prof")
	stop, err := startProfile(setupProf)
	if err != nil {
		return nil, err
	}
	inst, setupDur, err := setUp(w, c, t)
	stop()
	if err != nil {
		return nil, err
	}
	defer inst.close()
	stepProf := filepath.Join(profDir, w.name+"-steps.prof")
	b, err := drive(w, inst, driveOpts{seconds: seconds / 2, probe: c.probe, stepProfile: stepProf}, t)
	if err != nil {
		return nil, err
	}
	if t.op("traced vs untraced comparison", sameBits("traced vs untraced", a.state, b.state)) != nil {
		return nil, fmt.Errorf("tracing changed the trajectory")
	}
	if a.prefix != b.prefix {
		err := fmt.Errorf("tracing changed the program's counters: %+v vs %+v", a.prefix, b.prefix)
		t.op("traced vs untraced counters", err)
		return nil, err
	}
	t.op("traced vs untraced counters", nil)

	for prof, prefix := range map[string]string{stepProf: "cpu.", setupProf: "setup_cpu."} {
		shares, err := cpuShares(prof)
		if err != nil {
			return nil, err
		}
		for l, v := range shares {
			m[prefix+l] = v
		}
	}

	// Allocations and GC, from the untraced instance.
	var steady, rebuild []float64
	for _, r := range a.allocs {
		if r.rebuild {
			rebuild = append(rebuild, float64(r.mallocs))
		} else {
			steady = append(steady, float64(r.mallocs))
		}
	}
	// Medians: a sync.Cond.Wait in the cluster barrier now and then
	// allocates a runtime waiter, so a mean would not repeat run to run.
	m["runtime.allocs_per_step_steady"] = median(steady)
	m["runtime.allocs_per_step_rebuild"] = median(rebuild)
	m["runtime.gc_per_1k_steps"] = 1000 * float64(a.gcs) / float64(len(a.steps))

	all := stepMs(b.steps, nil)
	p50 := median(all)
	m["tracing.overhead_frac"] = p50/median(stepMs(a.steps, nil)) - 1
	m["bench.timed_steps"] = float64(len(b.steps))

	// Exact counters over the prefix.
	n := float64(w.prefix)
	m["linalg.gflop_per_step"] = float64(b.prefix.flops) / n / 1e9
	m["linalg.gflops"] = m["linalg.gflop_per_step"] / (p50 / 1e3)
	m["cluster.modeled_comm_us_per_step"] = b.prefix.commSeconds / n * 1e6
	m["halo.bytes_per_step"] = float64(b.prefix.haloBytes) / n
	if q, ok := inst.(*dcmesh); ok {
		m["dcmesh.norm_drift"] = q.qd.NormDrift()
		m["dcmesh.n_exc"] = q.qd.TotalExcitation()
	}

	// Rank clocks of the traced steps.
	var kernel, p1, p2, overhead, imbalance []float64
	for _, s := range b.steps {
		kernel = append(kernel, ms(s.slowest[kKernel]))
		p1 = append(p1, ms(s.slowest[kPhase1]))
		p2 = append(p2, ms(s.slowest[kPhase2]))
		overhead = append(overhead, ms(s.wall-s.slowest[kKernel]))
		if s.mean[kKernel] > 0 {
			imbalance = append(imbalance, float64(s.slowest[kKernel])/float64(s.mean[kKernel]))
		}
	}
	newEng, prime := inst.setupParts()
	switch inst.(type) {
	case *particles:
		m["ff.kernel_ms"] = median(kernel)
		m["allegro.phase1_ms"] = median(p1)
		m["allegro.phase2_ms"] = median(p2)
		m["shard.overhead_ms"] = median(overhead)
		m["shard.rank_imbalance"] = median(imbalance)
		m["shard.steady_step_ms"] = median(stepMs(b.steps, func(s stepRec) bool { return !s.rebuild }))
		m["shard.rebuild_step_ms"] = median(stepMs(b.steps, func(s stepRec) bool { return s.rebuild }))
		m["shard.rebuild_frac"] = float64(b.prefix.rebuilds) / n
		m["shard.migrated_per_step"] = float64(b.prefix.migrated) / n
		m["shard.new_engine_ms"] = ms(newEng)
		m["shard.prime_ms"] = ms(prime)
	case *fdtd:
		m["maxwell.rank_step_ms"] = median(kernel)
		m["shard.grid_overhead_ms"] = median(overhead)
		m["shard.rank_imbalance"] = median(imbalance)
		m["shard.new_engine_ms"] = ms(newEng)
		m["shard.prime_ms"] = ms(prime)
	}
	if len(b.ckpts) > 0 {
		var g, wr []float64
		for _, c := range b.ckpts {
			g = append(g, ms(c.gather))
			wr = append(wr, ms(c.write))
		}
		m["shard.gather_ms"] = median(g)
		m["mlmdio.write_ms"] = median(wr)
		m["mlmdio.ckpt_bytes"] = float64(b.ckpts[len(b.ckpts)-1].bytes)
	}
	fmt.Printf("# traced set-up %.3f s; %d traced and %d untraced timed steps\n", setupDur.Seconds(), len(b.steps), len(a.steps))
	return m, nil
}

// Command bench-scaling regenerates the machine-scale results of the paper
// on the simulated Aurora: Tables I–II (time-to-solution vs the state of the
// art) and Figs. 4–5 (weak/strong scaling of DC-MESH and XS-NNQMD), plus the
// Allegro-Legato fidelity-scaling ablation.
//
// Usage:
//
//	bench-scaling [-table1] [-table2] [-fig4a] [-fig4b] [-fig5a] [-fig5b] [-legato]
//	              [-shard | -grid | -hotspot | -procs | -fault | -recover | -stencil
//	               [-shardjson] [-shardcells N] [-shardsteps N]
//	               [-stencilcells N] [-stencilsteps N]]
//	              [-balance]
//
// With no flags, everything except -legato (which trains models and runs MD,
// taking ~a minute) and -shard/-grid/-hotspot/-procs (which measure the real
// sharded engine, internal/shard, rather than the analytic machine model) is
// printed. -shard -shardjson writes the committable BENCH_PR2.json document
// to stdout and the human table to stderr (see `make bench2`); -grid
// -shardjson likewise writes the 3-D grid-vs-slab BENCH_PR3.json (see
// `make bench3`); -hotspot -shardjson writes the static-vs-balanced
// load-balancing BENCH_PR4.json (see `make bench4`); -procs -shardjson
// writes the in-process-vs-multi-process transport comparison BENCH_PR5.json
// (see `make bench5`; the tool re-executes itself with the internal
// -procworker flags to fork one OS process per rank); -fault -shardjson
// writes the checkpoint-cost + unix-vs-tcp transport BENCH_PR6.json (see
// `make bench6`); -recover -shardjson writes the self-healing
// shrink-and-resume latency sweep BENCH_PR8.json (see `make bench8`);
// -stencil -shardjson writes the sharded-FDTD stencil-scaling sweep —
// per-step wall time and measured halo bytes/step across the rank-grid
// shapes of the stencil identity matrix — BENCH_PR9.json (see
// `make bench9`). -balance turns dynamic
// boundary balancing on in the -shard/-grid sweeps (the -hotspot sweep
// always measures both modes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mlmd/internal/bench"
	"mlmd/internal/shard"
)

func main() {
	t1 := flag.Bool("table1", false, "Table I: Maxwell-Ehrenfest T2S vs SOTA")
	t2 := flag.Bool("table2", false, "Table II: XS-NNQMD T2S vs SOTA")
	f4a := flag.Bool("fig4a", false, "Fig 4a: DC-MESH weak scaling")
	f4b := flag.Bool("fig4b", false, "Fig 4b: DC-MESH strong scaling")
	f5a := flag.Bool("fig5a", false, "Fig 5a: XS-NNQMD weak scaling")
	f5b := flag.Bool("fig5b", false, "Fig 5b: XS-NNQMD strong scaling")
	legato := flag.Bool("legato", false, "Allegro-Legato fidelity-scaling ablation (slow)")
	shardFlag := flag.Bool("shard", false, "real sharded-engine LJ strong scaling (1/2/4/8 slab ranks, best of 7)")
	gridFlag := flag.Bool("grid", false, "real sharded-engine grid-vs-slab strong scaling (1x1x1 … 2x2x2, best of 7)")
	hotspotFlag := flag.Bool("hotspot", false, "Gaussian hot-spot static-vs-balanced load-balancing sweep (best of 5)")
	procsFlag := flag.Bool("procs", false, "in-process vs multi-process transport sweep (forks one OS process per rank; best of 5) + transport ping-pong")
	faultFlag := flag.Bool("fault", false, "checkpoint write cost + unix-vs-tcp multi-process transport sweep (forks one OS process per rank)")
	recoverFlag := flag.Bool("recover", false, "self-healing shrink-and-resume latency vs checkpoint cadence (injects one rank failure per trial)")
	stencilFlag := flag.Bool("stencil", false, "sharded FDTD stencil scaling on the grid engine (1x1x1 ... 2x2x2, best of 5) with measured halo bytes/step")
	stencilCells := flag.Int("stencilcells", 24, "Yee cells per axis of the -stencil FDTD box")
	stencilSteps := flag.Int("stencilsteps", 100, "FDTD steps per -stencil trial")
	balanceFlag := flag.Bool("balance", false, "enable dynamic boundary balancing in the -shard/-grid sweeps")
	shardJSON := flag.Bool("shardjson", false, "with -shard/-grid/-hotspot/-procs/-fault: emit the JSON document (BENCH_PR2/3/4/5/6.json) instead of the table")
	shardCells := flag.Int("shardcells", 11, "fcc cells per axis of the -shard/-grid/-hotspot/-procs system (atoms = 4·cells³ before hot-spot thinning; needs cells >= 11 so the 8-rank slab still fits the halo)")
	shardSteps := flag.Int("shardsteps", 100, "MD steps per -shard/-grid/-hotspot/-procs trial")
	procWorker := flag.Bool("procworker", false, "internal: run as one rank worker of a -procs measurement")
	wrank := flag.Int("wrank", -1, "internal: -procworker rank")
	wgrid := flag.String("wgrid", "", "internal: -procworker grid shape")
	rdv := flag.String("rdv", "", "internal: -procworker rendezvous directory")
	wtransport := flag.String("wtransport", "unix", "internal: -procworker transport (unix or tcp)")
	flag.Parse()
	if *procWorker {
		grid, err := shard.ParseGrid(*wgrid)
		if err == nil {
			err = bench.RunProcWorker(*rdv, *wrank, grid, *shardCells, *shardSteps, *wtransport)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-scaling worker:", err)
			os.Exit(1)
		}
		return
	}
	exclusive := 0
	for _, f := range []bool{*shardFlag, *gridFlag, *hotspotFlag, *procsFlag, *faultFlag, *recoverFlag, *stencilFlag} {
		if f {
			exclusive++
		}
	}
	if exclusive > 1 {
		fmt.Fprintln(os.Stderr, "bench-scaling: -shard, -grid, -hotspot, -procs, -fault, -recover and -stencil are mutually exclusive (each emits its own JSON document)")
		os.Exit(2)
	}
	all := !*t1 && !*t2 && !*f4a && !*f4b && !*f5a && !*f5b && !*legato && exclusive == 0
	if *stencilFlag {
		points, err := bench.StencilScaling(bench.StencilShapes, *stencilCells, *stencilSteps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-scaling:", err)
			os.Exit(1)
		}
		emit(bench.StencilTable(points), bench.StencilDocument(points), *shardJSON)
	}

	if *t1 || all {
		fmt.Println(bench.Table1())
	}
	if *t2 || all {
		fmt.Println(bench.Table2())
	}
	if *f4a || all {
		fmt.Println(bench.SeriesTable("Fig 4a: DC-MESH weak scaling (simulated Aurora)", bench.Fig4a()))
	}
	if *f4b || all {
		fmt.Println(bench.SeriesTable("Fig 4b: DC-MESH strong scaling, 12.58M electrons (paper eff 0.843 at 4x)",
			[]bench.ScalingSeries{bench.Fig4b()}))
	}
	if *f5a || all {
		fmt.Println(bench.SeriesTable("Fig 5a: XS-NNQMD weak scaling (paper eff 0.957/0.964/0.997)", bench.Fig5a()))
	}
	if *f5b || all {
		fmt.Println(bench.SeriesTable("Fig 5b: XS-NNQMD strong scaling (paper eff 0.44 / 0.773)", bench.Fig5b()))
	}
	if *legato {
		res, err := bench.RunLegato(bench.DefaultLegatoConfig())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-scaling:", err)
			os.Exit(1)
		}
		fmt.Println(bench.LegatoTable(res))
	}
	if *shardFlag {
		points, err := bench.ShardStrongScaling([]int{1, 2, 4, 8}, *shardCells, *shardSteps, *balanceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-scaling:", err)
			os.Exit(1)
		}
		emitShard(points, bench.ShardScalingDocument, *shardJSON)
	}
	if *gridFlag {
		points, err := bench.ShardGridScaling(bench.GridShapes, *shardCells, *shardSteps, *balanceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-scaling:", err)
			os.Exit(1)
		}
		emitShard(points, bench.ShardGridDocument, *shardJSON)
	}
	if *hotspotFlag {
		points, err := bench.ShardHotSpot(bench.HotSpotShapes, *shardCells, *shardSteps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-scaling:", err)
			os.Exit(1)
		}
		emit(bench.HotSpotTable(points), bench.HotSpotDocument(points), *shardJSON)
	}
	if *procsFlag {
		exe, err := os.Executable()
		var points []bench.ProcPoint
		var ping []bench.PingPoint
		if err == nil {
			points, err = bench.ProcScaling(exe, bench.ProcShapes, *shardCells, *shardSteps)
		}
		if err == nil {
			ping, err = bench.TransportPingPong(bench.PingPongSizes, bench.PingPongIters)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-scaling:", err)
			os.Exit(1)
		}
		emit(bench.ProcScalingTable(points, ping), bench.ProcScalingDocument(points, ping), *shardJSON)
	}
	if *faultFlag {
		exe, err := os.Executable()
		var ckpt []bench.CkptPoint
		var tcp []bench.TCPPoint
		if err == nil {
			ckpt, err = bench.CheckpointCost(bench.FaultShapes, *shardCells, *shardSteps, bench.CkptEvery)
		}
		if err == nil {
			tcp, err = bench.TCPOverhead(exe, bench.FaultShapes, *shardCells, *shardSteps)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-scaling:", err)
			os.Exit(1)
		}
		emit(bench.FaultCkptTable(ckpt, tcp), bench.FaultCkptDocument(ckpt, tcp), *shardJSON)
	}
	if *recoverFlag {
		points, err := bench.RecoverCost(bench.RecoverGrid, *shardCells, *shardSteps, bench.RecoverCadences)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-scaling:", err)
			os.Exit(1)
		}
		emit(bench.RecoverTable(points), bench.RecoverDocument(points), *shardJSON)
	}
}

// emitShard adapts the slab/grid sweeps to emit.
func emitShard(points []bench.ShardPoint, doc func([]bench.ShardPoint) bench.ShardScalingDoc, asJSON bool) {
	emit(bench.ShardScalingTable(points), doc(points), asJSON)
}

// emit prints the human table, or with -shardjson the JSON document on
// stdout (redirect into BENCH_PR*.json) and the table on stderr.
func emit(table string, doc any, asJSON bool) {
	if !asJSON {
		fmt.Println(table)
		return
	}
	fmt.Fprintln(os.Stderr, table)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench-scaling:", err)
		os.Exit(1)
	}
}

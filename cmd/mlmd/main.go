// Command mlmd runs a small end-to-end multiscale light-matter dynamics
// simulation and prints a step-by-step trace: the DC-MESH quantum module
// (Maxwell + Ehrenfest + surface hopping) excites electrons under a laser
// pulse, and the XS-NNQMD module propagates the lattice response.
//
// Usage:
//
//	mlmd [-mesh N] [-domains N] [-norb N] [-nqd N] [-mdsteps N] [-amp E0] [-photon eV]
//	     [-cells N] [-ranks N | -grid PxxPyxPz|auto] [-balance]
//	     [-procs N [-transport unix|tcp]] [-hosts h0:p0,h1:p1,... -hostrank i]
//	     [-peer-timeout d] [-checkpoint-every N [-checkpoint path]] [-resume path]
//	     [-auto-resume [-max-restarts N]] [-gen G]
//	mlmd -fdtd  [-ranks N | -grid PxxPyxPz] [-procs N [-transport unix|tcp]]
//	mlmd -tddft [-ranks N | -grid PxxPyxPz] [-procs N [-transport unix|tcp]]
//
// -fdtd and -tddft run the sharded grid field solvers instead of the
// particle pipeline: a driven 3-D Maxwell FDTD box (-fdtd) or a
// laser-pulse TDDFT orbital propagation (-tddft), decomposed on the same
// halo spine as the lattice stage. Each summary line is computed serially
// on rank 0 from the gathered global fields, so the output is bitwise
// identical on every decomposition and transport. The particle-stage
// flags (-balance, -checkpoint-every, -resume, -auto-resume, -hosts,
// -grid auto) do not apply to the field demos and fail fast.
//
// With -procs N the sharded lattice stage runs across N OS processes: the
// launcher forks one worker per rank (mlmd -worker -wrank i), the workers
// connect through the Unix-domain-socket rank transport (-transport tcp
// swaps in loopback TCP with a rendezvous-directory port exchange), and
// rank 0 prints the aggregated summary — which is bitwise identical to the
// in-process -ranks/-grid run of the same decomposition. With -hosts the
// process joins a multi-host TCP mesh as rank -hostrank of the listed
// endpoints (every host must be started with the identical list).
//
// With -checkpoint-every N the lattice stage writes a restartable snapshot
// every N MD steps (atomically, to -checkpoint, rotating the previous
// snapshot to -checkpoint.prev); -resume path continues an interrupted run
// from its last snapshot — on any decomposition, with a trajectory bitwise
// identical to the uninterrupted run.
//
// With -auto-resume (requires -procs and -checkpoint-every) the launcher
// supervises the run: when a worker crashes mid-run, the survivors' typed
// rank-failure exits are reaped, the newest valid checkpoint (-checkpoint
// or its .prev rotation) is discovered, and the run is re-launched at the
// reduced rank count under an incremented mesh generation (-gen) with an
// auto-selected grid shape (-grid auto) — no operator action, bounded by
// -max-restarts. Generation tags are carried in the wire handshake and the
// rendezvous file names, so stragglers of a torn-down mesh can neither be
// dialed nor join the new one. -grid auto picks the feasible Px×Py×Pz with
// the least per-rank halo surface and is available on any decomposed run.
//
// A multi-host (-hosts) run has no single supervisor; on a rank failure
// each survivor prints a ready-to-run shrink-and-restart command line
// (shrunken host list, next -gen, -resume) and exits nonzero, so an
// external launcher — or the operator — can restart the survivors against
// the newest checkpoint.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"mlmd/internal/cluster"
	"mlmd/internal/core"
	"mlmd/internal/ferro"
	"mlmd/internal/grid"
	"mlmd/internal/maxwell"
	"mlmd/internal/mlmdio"
	"mlmd/internal/shard"
	"mlmd/internal/units"
)

// latBlocks and latBlock shape the XS-NNQMD stage: latBlocks summary lines
// of latBlock MD steps each.
const (
	latBlocks = 5
	latBlock  = 40
)

// failRankEnv names a worker rank that must exit immediately instead of
// joining the mesh — the fault-injection hook of the launcher-cleanup
// regression test (unset in production).
const failRankEnv = "MLMD_TEST_FAIL_RANK"

// killRankEnv and killStepEnv are the crash-injection hook of the
// auto-recovery tests: the worker hosting rank killRankEnv SIGKILLs itself
// (no bye frame — exactly a crashed host) at the first summary/checkpoint
// boundary at or past killStepEnv steps (both unset in production).
const (
	killRankEnv = "MLMD_TEST_KILL_RANK"
	killStepEnv = "MLMD_TEST_KILL_STEP"
)

// latCutoff and latSkin are the lattice-stage decomposition parameters: the
// soft-mode stencil reaches the neighbor cell's Ti, so the cutoff must
// cover a lattice constant plus off-centering drift. Their sum is the halo
// width every subdomain must clear.
var (
	latCutoff = 1.3 * ferro.LatticeConstant
	latSkin   = 0.4 * ferro.LatticeConstant
)

// shardOpts is the resolved sharding configuration of the lattice stage.
type shardOpts struct {
	grid      [3]int // {0,0,0} = unsharded
	balance   bool
	procs     int                      // > 0: multi-process run
	transport string                   // -procs socket family: "unix" or "tcp"
	comm      *cluster.Comm            // worker/hosts mode: the socket communicator
	local     int                      // worker/hosts mode: the hosted rank
	gen       int                      // mesh generation tag of this launch
	hostList  []string                 // -hosts mode: the rank endpoints
	tr        *cluster.SocketTransport // worker/hosts mode: the raw transport (failure drain)
}

// ckptOpts is the resolved checkpoint/restart configuration.
type ckptOpts struct {
	every  int
	path   string
	resume *mlmdio.Checkpoint
}

func main() {
	mesh := flag.Int("mesh", 16, "global mesh points per axis (power of two recommended)")
	domains := flag.Int("domains", 2, "DC domains per axis")
	norb := flag.Int("norb", 4, "KS orbitals per domain")
	nqd := flag.Int("nqd", 40, "QD steps per MD step")
	mdsteps := flag.Int("mdsteps", 3, "DC-MESH MD steps (pulse window)")
	amp := flag.Float64("amp", 0.3, "peak laser E field (a.u.)")
	photon := flag.Float64("photon", 3.0, "photon energy (eV)")
	latCells := flag.Int("cells", 12, "XS-NNQMD lattice cells per axis (xy)")
	ranks := flag.Int("ranks", 0, "shard the XS-NNQMD stage across N in-process slab ranks (0 = unsharded)")
	gridStr := flag.String("grid", "", "shard the XS-NNQMD stage across a PxxPyxPz domain grid, e.g. 2x2x1 (the demo lattice is 2 cells thick, so Pz must divide its thin axis with room for the halo); \"auto\" picks the feasible shape with the least per-rank halo surface for the -ranks/-procs/-hosts rank count")
	balance := flag.Bool("balance", false, "with -ranks/-grid/-procs: dynamically rebalance the subdomain boundaries from per-rank step times (trajectory stays bitwise identical; a summary line reports the imbalance)")
	procs := flag.Int("procs", 0, "run the sharded XS-NNQMD stage across N OS processes over the rank transport (alone: an Nx1x1 slab grid; with -grid: the grid's rank count must equal N)")
	transport := flag.String("transport", "unix", "-procs socket family: unix (domain sockets) or tcp (loopback TCP with a rendezvous-directory port exchange); trajectories are bitwise identical either way")
	hosts := flag.String("hosts", "", "join a multi-host TCP mesh: comma-separated host0:port,host1:port,... rank endpoints, identical on every host (requires -hostrank; rank count must match the decomposition)")
	hostRank := flag.Int("hostrank", -1, "this process's rank in the -hosts list")
	peerTimeout := flag.Duration("peer-timeout", 0, "declare a silent peer dead after this long without a frame (heartbeats keep healthy idle links alive; 0 disables the deadline — a killed peer is still detected through the connection close)")
	ckptEvery := flag.Int("checkpoint-every", 0, "write a restartable snapshot of the lattice stage every N MD steps (0 = never)")
	ckptPath := flag.String("checkpoint", "mlmd.ckpt", "checkpoint file path (written atomically by rank 0)")
	resumePath := flag.String("resume", "", "resume the lattice stage from this checkpoint (skips the DC-MESH stage; any -grid/-procs decomposition works)")
	autoResume := flag.Bool("auto-resume", false, "with -procs and -checkpoint-every: supervise the run — when a worker crashes, shrink to the survivors, re-select the grid, and resume from the newest valid checkpoint automatically")
	maxRestarts := flag.Int("max-restarts", 3, "with -auto-resume: give up after this many automatic restarts (a crash-looping run must not spin forever)")
	genFlag := flag.Int("gen", 0, "mesh generation tag carried in the rank-transport handshake and rendezvous file names (0 for a fresh launch; a shrink-and-resume relaunch must increment it so stragglers of the dead mesh are fenced out)")
	fdtdDemo := flag.Bool("fdtd", false, "run the sharded Maxwell FDTD field demo instead of the particle pipeline (supports -ranks/-grid/-procs/-transport; summary is decomposition-invariant)")
	tddftDemo := flag.Bool("tddft", false, "run the sharded laser-pulse TDDFT field demo instead of the particle pipeline (supports -ranks/-grid/-procs/-transport; summary is decomposition-invariant)")
	worker := flag.Bool("worker", false, "internal: run as one rank worker of a -procs launch")
	wrank := flag.Int("wrank", -1, "internal: worker rank of a -procs launch")
	rdv := flag.String("rdv", "", "internal: rendezvous directory of the -procs socket transport")
	flag.Parse()

	demo := ""
	if *fdtdDemo {
		demo = "fdtd"
	}
	if *tddftDemo {
		if demo != "" {
			fail(fmt.Errorf("-fdtd and -tddft are exclusive: pick one field demo"))
		}
		demo = "tddft"
	}
	if demo != "" {
		if err := checkFieldDemoFlags(demo, *gridStr, *balance, *hosts, *ckptEvery, *resumePath, *autoResume); err != nil {
			fail(err)
		}
	}
	opts, err := resolveShard(*ranks, *gridStr, *balance, *procs, *transport, *hosts, *hostRank, *latCells)
	if err != nil {
		fail(err)
	}
	opts.gen = *genFlag
	if *autoResume {
		if opts.procs == 0 {
			fail(fmt.Errorf("-auto-resume requires -procs (a multi-host run prints a shrink-and-restart command instead; see -hosts)"))
		}
		if *ckptEvery <= 0 {
			fail(fmt.Errorf("-auto-resume requires -checkpoint-every: without snapshots there is nothing to resume from"))
		}
	}
	if opts.procs > 0 && !*worker {
		os.Exit(launch(opts.procs, *autoResume, *maxRestarts, *ckptPath))
	}
	sockOpts := cluster.SocketOptions{PeerTimeout: *peerTimeout, Generation: *genFlag}
	out := io.Writer(os.Stdout)
	if *worker {
		if *wrank < 0 || *wrank >= opts.procs || *rdv == "" {
			fail(fmt.Errorf("-worker needs -wrank in [0,%d) and -rdv", opts.procs))
		}
		if os.Getenv(failRankEnv) == strconv.Itoa(*wrank) {
			fail(fmt.Errorf("worker %d: deliberate start-up failure (%s)", *wrank, failRankEnv))
		}
		var tr *cluster.SocketTransport
		var err error
		if opts.transport == "tcp" {
			tr, err = cluster.NewTCPRendezvousTransport(*rdv, *wrank, opts.procs, opts.grid, sockOpts)
		} else {
			tr, err = cluster.NewSocketTransportOpts(*rdv, *wrank, opts.procs, opts.grid, sockOpts)
		}
		if err != nil {
			fail(err)
		}
		defer tr.Close()
		comm, err := cluster.NewCommOver(tr, cluster.Interconnect{})
		if err != nil {
			fail(err)
		}
		opts.comm = comm
		opts.local = *wrank
		opts.tr = tr
		if *wrank != 0 {
			out = io.Discard
		}
	} else if *hosts != "" {
		hostList, err := cluster.ParseHostList(*hosts)
		if err != nil {
			fail(err)
		}
		tr, err := cluster.NewTCPTransport(hostList, *hostRank, len(hostList), opts.grid, sockOpts)
		if err != nil {
			fail(err)
		}
		defer tr.Close()
		comm, err := cluster.NewCommOver(tr, cluster.Interconnect{})
		if err != nil {
			fail(err)
		}
		opts.comm = comm
		opts.local = *hostRank
		opts.tr = tr
		opts.hostList = hostList
		if *hostRank != 0 {
			out = io.Discard
		}
	}
	if demo != "" {
		runFieldDemo(out, demo, opts)
		return
	}
	ck := ckptOpts{every: *ckptEvery, path: *ckptPath}
	if *resumePath != "" {
		cp, err := mlmdio.ReadCheckpointFile(*resumePath)
		if err != nil {
			fail(err)
		}
		ck.resume = cp
	}
	run(out, *mesh, *domains, *norb, *nqd, *mdsteps, *amp, *photon, *latCells, opts, ck)
}

// resolveShard validates the sharding flags and resolves them into a grid
// shape. Misuse that older versions silently ignored fails fast here:
// -balance without a decomposition, -ranks combined with -grid, and
// contradictory or incomplete multi-host flags. "-grid auto" resolves to
// the AutoGrid shape for the run's rank count over the -cells lattice box.
func resolveShard(ranks int, gridStr string, balance bool, procs int, transport, hosts string, hostRank, latCells int) (shardOpts, error) {
	opts := shardOpts{balance: balance, procs: procs, transport: transport}
	if ranks < 0 || procs < 0 {
		return opts, fmt.Errorf("-ranks and -procs must be >= 0")
	}
	if transport != "unix" && transport != "tcp" {
		return opts, fmt.Errorf("-transport %q: use unix or tcp", transport)
	}
	if ranks > 0 && gridStr != "" && gridStr != "auto" {
		return opts, fmt.Errorf("-ranks %d and -grid %s both name a decomposition: use one", ranks, gridStr)
	}
	if hosts != "" && procs > 0 {
		return opts, fmt.Errorf("-hosts (multi-host mesh) and -procs (single-host launcher) are exclusive")
	}
	nHosts := 0
	if hosts != "" {
		list, err := cluster.ParseHostList(hosts)
		if err != nil {
			return opts, err
		}
		nHosts = len(list)
		if hostRank < 0 || hostRank >= nHosts {
			return opts, fmt.Errorf("-hosts lists %d endpoints: -hostrank must be in [0,%d)", nHosts, nHosts)
		}
	} else if hostRank >= 0 {
		return opts, fmt.Errorf("-hostrank requires -hosts")
	}
	switch {
	case gridStr == "auto":
		n := procs
		if n == 0 {
			n = ranks
		}
		if n == 0 {
			n = nHosts
		}
		if n == 0 {
			return opts, fmt.Errorf("-grid auto needs a rank count: add -ranks, -procs or -hosts")
		}
		g, err := autoGridForLattice(n, latCells)
		if err != nil {
			return opts, err
		}
		opts.grid = g
	case gridStr != "":
		g, err := shard.ParseGrid(gridStr)
		if err != nil {
			return opts, err
		}
		opts.grid = g
	case ranks > 0:
		opts.grid = [3]int{ranks, 1, 1}
	case procs > 0:
		opts.grid = [3]int{procs, 1, 1}
	case nHosts > 0:
		opts.grid = [3]int{nHosts, 1, 1}
	}
	if procs > 0 {
		if n := opts.grid[0] * opts.grid[1] * opts.grid[2]; n != procs {
			return opts, fmt.Errorf("-procs %d does not match the %d-rank decomposition (%dx%dx%d)",
				procs, n, opts.grid[0], opts.grid[1], opts.grid[2])
		}
	}
	if nHosts > 0 {
		if n := opts.grid[0] * opts.grid[1] * opts.grid[2]; n != nHosts {
			return opts, fmt.Errorf("-hosts lists %d endpoints but the decomposition has %d ranks (%dx%dx%d)",
				nHosts, n, opts.grid[0], opts.grid[1], opts.grid[2])
		}
	}
	if balance && opts.grid == [3]int{} {
		return opts, fmt.Errorf("-balance requires a decomposition: add -ranks, -grid, -procs or -hosts")
	}
	return opts, nil
}

// launch is the -procs parent: it forks one worker per rank with the
// original arguments plus the internal worker flags, streams rank 0's
// aggregated summary, and reaps the children. Without -auto-resume the
// first worker failure kills the remaining workers immediately — every
// child is reaped and the rendezvous directory removed before launch
// returns, so a botched start-up cannot orphan processes or leak
// socket/address files.
//
// With -auto-resume launch is the self-healing supervisor: when a worker
// generation ends with crashed (signal-killed) workers, it discovers the
// newest valid checkpoint, shrinks the rank count by the crashed workers,
// and re-launches the survivors with -resume, -grid auto and an
// incremented -gen — so stragglers of the dead mesh can neither be dialed
// (generation-tagged rendezvous names) nor join (handshake tag). The
// restart budget -max-restarts bounds the loop.
func launch(procs int, autoResume bool, maxRestarts int, ckptPath string) int {
	exe, err := os.Executable()
	if err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp("", "mlmd-rdv")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	size, gen, restarts := procs, 0, 0
	args := append([]string{}, os.Args[1:]...)
	for {
		killed, status := runWorkerGeneration(exe, dir, args, size, !autoResume)
		if status == 0 || !autoResume {
			return status
		}
		if killed == 0 {
			fmt.Fprintln(os.Stderr, "mlmd: workers failed without a crash; an identical restart would fail the same way")
			return status
		}
		if killed >= size {
			fmt.Fprintln(os.Stderr, "mlmd: no surviving ranks to resume on")
			return status
		}
		if restarts >= maxRestarts {
			fmt.Fprintf(os.Stderr, "mlmd: restart budget %d exhausted\n", maxRestarts)
			return status
		}
		path, _, err := mlmdio.NewestValidCheckpoint([]string{ckptPath, ckptPath + ".prev"})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlmd: cannot auto-resume: %v\n", err)
			return status
		}
		restarts++
		gen++
		size -= killed
		fmt.Fprintf(os.Stderr, "mlmd: restart %d/%d: resuming %d ranks from %s at generation %d\n",
			restarts, maxRestarts, size, path, gen)
		args = stripFlags(os.Args[1:], "-grid", "-ranks", "-procs", "-resume", "-gen")
		args = append(args,
			"-procs", strconv.Itoa(size), "-grid", "auto",
			"-gen", strconv.Itoa(gen), "-resume", path)
	}
}

// runWorkerGeneration forks and reaps one generation of size workers,
// returning how many died to a signal (crashed, as opposed to exiting with
// an error) and the generation's exit status. With failStop the first
// failure takes the survivors down immediately; the supervisor instead
// lets them exit on their own typed rank-failure (bounded: close detection
// is immediate), so crashed and surviving workers stay distinguishable.
func runWorkerGeneration(exe, dir string, args []string, size int, failStop bool) (killed, status int) {
	cmds := make([]*exec.Cmd, 0, size)
	done := make(chan workerExit, size)
	for r := 0; r < size; r++ {
		wargs := append(append([]string{}, args...),
			"-worker", "-wrank", strconv.Itoa(r), "-rdv", dir)
		cmd := exec.Command(exe, wargs...)
		cmd.Stderr = os.Stderr
		if r == 0 {
			cmd.Stdout = os.Stdout
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "mlmd: worker %d: %v\n", r, err)
			killAndReap(cmds, done)
			return 0, 1
		}
		cmds = append(cmds, cmd)
		//lint:allow poolonly one reaper goroutine per forked worker process; supervisor lifecycle, not a fan-out
		go func(rank int, cmd *exec.Cmd) { done <- workerExit{rank, cmd.Wait()} }(r, cmd)
	}
	for range cmds {
		e := <-done
		if e.err == nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "mlmd: worker %d: %v\n", e.rank, e.err)
		var ee *exec.ExitError
		if errors.As(e.err, &ee) && ee.ProcessState.ExitCode() == -1 {
			killed++
		}
		if status == 0 {
			status = 1
			if failStop {
				// Fail-stop: one lost rank already dooms the run, so take
				// the survivors down now instead of letting them block on a
				// mesh that can never complete.
				for _, c := range cmds {
					if c.Process != nil {
						c.Process.Kill()
					}
				}
			}
		}
	}
	return killed, status
}

// stripFlags removes the named value-taking flags and their arguments from
// args, accepting the "-name value", "-name=value" and "--name" spellings —
// the supervisor uses it to rewrite a generation's decomposition flags.
func stripFlags(args []string, names ...string) []string {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[strings.TrimLeft(n, "-")] = true
	}
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, hasValue := a, false
		if j := strings.IndexByte(a, '='); j >= 0 {
			name, hasValue = a[:j], true
		}
		if strings.HasPrefix(name, "-") && drop[strings.TrimLeft(name, "-")] {
			if !hasValue && i+1 < len(args) {
				i++ // skip the separate value
			}
			continue
		}
		out = append(out, a)
	}
	return out
}

// autoGridForLattice resolves "-grid auto": the AutoGrid shape for ranks
// over the -cells demo lattice box with the lattice-stage halo.
func autoGridForLattice(ranks, cells int) ([3]int, error) {
	sys, _, err := ferro.NewLattice(cells, cells, 2)
	if err != nil {
		return [3]int{}, err
	}
	return shard.AutoGrid(ranks, [3]float64{sys.Lx, sys.Ly, sys.Lz}, latCutoff+latSkin)
}

// workerExit pairs a finished -procs worker with its exit error.
type workerExit struct {
	rank int
	err  error
}

// killAndReap kills every started worker and drains their exits (the
// start-error path of launch: reaping keeps the failed launch from leaving
// zombies behind).
func killAndReap(cmds []*exec.Cmd, done chan workerExit) {
	for _, c := range cmds {
		if c.Process != nil {
			c.Process.Kill()
		}
	}
	for range cmds {
		<-done
	}
}

// run is the full pipeline, shared by the single-process path and every
// -procs worker (which all execute the deterministic DC-MESH stage and
// diverge only in which lattice subdomain they own; out is io.Discard on
// every rank but 0). A resume (ck.resume non-nil) skips the DC-MESH stage
// and restores the lattice state from the checkpoint instead.
func run(out io.Writer, mesh, domains, norb, nqd, mdsteps int, amp, photon float64, latCells int, opts shardOpts, ck ckptOpts) {
	var nExc []float64
	if ck.resume == nil {
		cfg := core.DefaultDCMESHConfig()
		cfg.Global = grid.NewCubic(mesh, 0.8)
		cfg.Dx, cfg.Dy, cfg.Dz = domains, domains, 1
		cfg.Norb = norb
		cfg.NQD = nqd
		cfg.GroundIters = 300
		cfg.Pulse = maxwell.NewPulse(amp, units.Hartree(photon), 0.5, 0.5)

		fmt.Fprintf(out, "MLMD: %s split into %dx%dx%d domains, %d orbitals each\n",
			cfg.Global, cfg.Dx, cfg.Dy, cfg.Dz, cfg.Norb)
		qd, err := core.NewDCMESH(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "prepared %d domain ground states\n", len(qd.Domains))

		fmt.Fprintf(out, "\n-- DC-MESH: pulse E0=%g a.u., photon %.2f eV --\n", amp, photon)
		for s := 0; s < mdsteps; s++ {
			nExc = qd.MDStep()
			fmt.Fprintf(out, "MD step %d: t = %6.2f as, n_exc total = %.4f, norm drift = %.2e\n",
				s+1, units.Attoseconds(qd.Time()), qd.TotalExcitation(), qd.NormDrift())
		}
		fmt.Fprintf(out, "\n-- XS-NNQMD: %dx%dx2 PbTiO3 lattice response --\n", latCells, latCells)
	} else {
		fmt.Fprintf(out, "-- XS-NNQMD: resuming %dx%dx2 PbTiO3 lattice at step %d (t = %6.1f fs) --\n",
			latCells, latCells, ck.resume.Step, units.Femtoseconds(ck.resume.Time))
	}

	sys, lat, err := ferro.NewLattice(latCells, latCells, 2)
	if err != nil {
		fail(err)
	}
	gs := ferro.DefaultEffHam(lat)
	xs := ferro.DefaultEffHam(lat)
	xs.SetExcitation(1.0)
	stepsDone := 0
	if ck.resume == nil {
		s0 := gs.S0()
		for c := 0; c < lat.NumCells(); c++ {
			lat.SetSoftMode(sys, c, 0, 0, s0)
		}
	} else {
		cp := ck.resume
		if cp.Sys.N != sys.N || cp.Sys.Lx != sys.Lx || cp.Sys.Ly != sys.Ly || cp.Sys.Lz != sys.Lz {
			fail(fmt.Errorf("checkpoint holds %d atoms in a %gx%gx%g box; -cells %d builds %d atoms in %gx%gx%g",
				cp.Sys.N, cp.Sys.Lx, cp.Sys.Ly, cp.Sys.Lz, latCells, sys.N, sys.Lx, sys.Ly, sys.Lz))
		}
		copy(sys.X, cp.Sys.X)
		copy(sys.V, cp.Sys.V)
		copy(sys.F, cp.Sys.F)
		stepsDone = int(cp.Step)
	}
	nn, err := core.NewXSNNQMD(sys, lat, gs, xs, 20, 1)
	if err != nil {
		fail(err)
	}
	var eng *shard.Engine
	if opts.grid != [3]int{} {
		newFF, err := shard.BlendEffHamFactory(lat, gs, xs)
		if err != nil {
			fail(err)
		}
		cfg := shard.Config{
			Grid:      opts.grid,
			Cutoff:    latCutoff,
			Skin:      latSkin,
			NewFF:     newFF,
			Balance:   opts.balance,
			Comm:      opts.comm,
			LocalRank: opts.local,
		}
		// A resume restores the checkpoint's cut planes when the shape
		// matches; a shrunken shape seeds them from the persisted load
		// profile instead, so heavy regions start narrow (empty = uniform).
		if cp := ck.resume; cp != nil {
			if cp.Grid == opts.grid {
				cfg.Cuts = cp.Cuts
			} else if cp.Grid != ([3]int{}) {
				box := [3]float64{sys.Lx, sys.Ly, sys.Lz}
				cfg.Cuts = shard.SeedCuts(opts.grid, box, latCutoff+latSkin, cp.Grid, cp.Cuts, cp.Loads)
			}
		}
		eng, err = shard.NewEngine(cfg, sys)
		if err != nil {
			fail(err)
		}
		defer eng.Close()
		nn.SetForceField(eng)
		g := eng.Grid()
		if opts.procs > 0 {
			fmt.Fprintf(out, "(lattice stage sharded across %d ranks, %dx%dx%d grid, %d processes)\n",
				eng.Ranks(), g[0], g[1], g[2], opts.procs)
		} else {
			fmt.Fprintf(out, "(lattice stage sharded across %d ranks, %dx%dx%d grid)\n", eng.Ranks(), g[0], g[1], g[2])
		}
	}
	if ck.resume == nil {
		if err := nn.SetExcitationFromDomains(nExc, domains, domains, 1, 0.02); err != nil {
			fail(err)
		}
	} else {
		if err := nn.SetExcitationMap(ck.resume.Extra); err != nil {
			fail(err)
		}
		nn.SetTime(ck.resume.Time)
		// Construction and SetForceField both re-primed sys.F from the
		// current weights; the first post-resume half-kick must instead use
		// exactly the forces the interrupted run held, so restore F last.
		copy(sys.F, ck.resume.Sys.F)
	}
	nn.CarrierLifetime = 1000
	// The lattice loop advances to the next print or checkpoint boundary,
	// whichever comes first — chunking is invisible to the trajectory
	// (Step(n) is a plain loop of single steps), so the summary lines are
	// bitwise identical with checkpointing on, off, or resumed mid-run.
	isRoot := opts.comm == nil || opts.local == 0
	for stepsDone < latBlocks*latBlock {
		next := (stepsDone/latBlock + 1) * latBlock
		if ck.every > 0 {
			if nc := (stepsDone/ck.every + 1) * ck.every; nc < next {
				next = nc
			}
		}
		nn.Step(next - stepsDone)
		stepsDone = next
		if eng != nil {
			if err := eng.Err(); err != nil {
				adviseSurvivors(opts, err)
				fail(err)
			}
		}
		if stepsDone%latBlock == 0 {
			fmt.Fprintf(out, "t = %6.1f fs: mean Pz = %+.4f, topological charge = %+.2f\n",
				units.Femtoseconds(nn.Time()), nn.PolarizationField().MeanPz(), nn.TopologicalCharge())
		}
		if ck.every > 0 && stepsDone%ck.every == 0 && isRoot {
			cp := &mlmdio.Checkpoint{
				Step: int64(stepsDone), Time: nn.Time(), Dt: nn.DtMD,
				Extra: nn.ExcitationPerCell, Sys: sys,
			}
			if eng != nil {
				cp.Grid = eng.Grid()
				for a := 0; a < 3; a++ {
					cp.Cuts[a] = eng.CutPlanes(a)
				}
				cp.Loads = eng.LoadProfile()
			}
			// Rotate before writing: a crash mid-run always leaves at least
			// one intact snapshot for auto-resume discovery to find.
			if _, err := os.Stat(ck.path); err == nil {
				if err := os.Rename(ck.path, ck.path+".prev"); err != nil {
					fail(err)
				}
			}
			if err := mlmdio.WriteCheckpointFile(ck.path, cp); err != nil {
				fail(err)
			}
		}
		maybeTestKill(opts, stepsDone)
	}
	if eng != nil && opts.balance {
		// Timing-dependent, so outside the golden summary (the trajectory
		// above is bitwise identical to the unbalanced run regardless).
		rebalances, maxShift := eng.BalanceStats()
		if opts.procs > 0 {
			// A worker hosts one rank, so per-process imbalance is
			// trivially 1.0 — print only the controller activity (the
			// cross-rank profile lives inside the rebalance AllGather).
			fmt.Fprintf(out, "(balance: %d rebalances, max cut shift %.3f)\n", rebalances, maxShift)
		} else {
			fmt.Fprintf(out, "(balance: %d rebalances, max cut shift %.3f, step-time imbalance %.2f, owned-atom imbalance %.2f)\n",
				rebalances, maxShift, eng.LoadImbalance(), eng.OwnedImbalance())
		}
	}
	fmt.Fprintln(out, "\ndone.")
}

// adviseSurvivors is the multi-host survivor behavior: a -hosts run has no
// supervising launcher, so on a rank failure each survivor prints a
// ready-to-run shrink-and-restart command — the surviving endpoint list,
// this host's new rank, the next mesh generation, and where to resume —
// then exits through fail. A brief drain first lets near-simultaneous
// failures all land in the shrunken list.
func adviseSurvivors(opts shardOpts, err error) {
	var rf *cluster.RankFailedError
	if !errors.As(err, &rf) || len(opts.hostList) == 0 || opts.tr == nil {
		return
	}
	time.Sleep(100 * time.Millisecond)
	lost := map[int]bool{rf.Rank: true}
	for _, r := range opts.tr.FailedRanks() {
		lost[r] = true
	}
	surv := make([]string, 0, len(opts.hostList))
	newRank := -1
	for i, h := range opts.hostList {
		if lost[i] {
			continue
		}
		if i == opts.local {
			newRank = len(surv)
		}
		surv = append(surv, h)
	}
	if newRank < 0 {
		return
	}
	fmt.Fprintf(os.Stderr,
		"mlmd: to resume on the %d survivors, run on this host:\n  mlmd -hosts %s -hostrank %d -gen %d -grid auto -resume <newest of -checkpoint/.prev> <original flags>\n",
		len(surv), strings.Join(surv, ","), newRank, opts.gen+1)
}

// maybeTestKill is the crash-injection hook of the auto-recovery tests
// (killRankEnv/killStepEnv): the named rank SIGKILLs itself at the first
// chunk boundary at or past the named step — no bye frame, no deferred
// teardown, exactly a crashed host. A no-op in production (envs unset).
func maybeTestKill(opts shardOpts, stepsDone int) {
	rankEnv, stepEnv := os.Getenv(killRankEnv), os.Getenv(killStepEnv)
	if rankEnv == "" || stepEnv == "" || opts.comm == nil {
		return
	}
	rank, err1 := strconv.Atoi(rankEnv)
	step, err2 := strconv.Atoi(stepEnv)
	if err1 != nil || err2 != nil || rank != opts.local || stepsDone < step {
		return
	}
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		p.Kill()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mlmd:", err)
	os.Exit(1)
}

// Command ddsim simulates a quantum circuit with a selectable
// operation-combination strategy and reports the resulting state,
// samples, and simulation statistics. Both the native textual format
// (see internal/circuit) and OpenQASM 2.0 are accepted; the format is
// auto-detected.
//
// Usage:
//
//	ddsim -file circuit.qc -strategy max-size -smax 128 -shots 10
//	ddsim -file bell.qasm -top 4
//	ddsim -file - < circuit.qc       # read from stdin
//	ddsim -file grover.qc -shots 1000 -parallel 8   # 8 sampling streams
//
// -shots K -parallel N simulates a static circuit once and draws the K
// samples from its final state in N shares, share j from its own rng
// stream (seed + j). Dynamic OpenQASM programs (measure/reset/if)
// re-execute the program per shot, so they fan their shot loop across
// a pool of N workers, with the same seeded shares.
//
// Strategies: sequential (default), k-operations (-k), max-size
// (-smax), planner (picks k-operations k = 4, max-size s_max = 128 or
// a flush at twice the state DD's size from the circuit's gate
// locality), combine-all. -blocks
// additionally enables the DD-repeating treatment of "repeat" blocks in
// the input. -dot dumps the final state DD in Graphviz format.
//
// -reorder selects variable reordering: "static" derives an initial
// variable order from the circuit's qubit-interaction graph before the
// run, "sifting" additionally re-sifts the order whenever the state DD
// grows past a threshold (amplitudes and samples are always reported in
// circuit qubit order regardless of the internal level permutation).
//
// Resilience: -timeout bounds the wall-clock time, -max-nodes bounds
// live DD nodes (a combination that trips the cap is replayed gate by
// gate, the degradation ladder's replay rung, unless -degrade off is
// set), -checkpoint periodically saves a resumable snapshot that
// -resume restarts from.
//
// Verification: -verify-every N audits the engine and state DD every N
// gates (structural invariants, weight canonicality, norm drift,
// unitarity of accumulated matrices); -paranoid additionally compares
// every verified state against a dense reference simulation (≤ 24
// qubits). Detected corruption ends the run with exit status 7; every
// -checkpoint file a verified run writes follows a clean pass, so
// -resume from it is the recovery. -fsck checks a checkpoint file
// (format, per-section CRC32, state DD audit, norm) without
// simulating.
//
// Aborted runs print a partial-progress report and exit with a
// distinct status. SIGINT (^C) or SIGTERM during the simulation cancels
// it: the run stops inside the current operation, writes its
// -checkpoint, and exits 5; a second signal kills the process.
//
//	0 success   2 usage      4 node budget exceeded   6 internal panic
//	1 error     3 timeout    5 canceled                7 state corruption
//	8 parked under memory pressure (resumable checkpoint written)
//
// -soft-budget arms the memory-pressure governor: as live nodes
// approach the target the run degrades in stages (emergency GC, flush
// and sequential pinning, sifting) instead of aborting at the -max-nodes
// cliff; -degrade approx additionally allows fidelity-bounded state
// truncation, with the resulting bound reported. A run whose ladder is
// exhausted parks behind a checkpoint and exits 8. The "governor" line
// counts the ladder's actions and the replays among them, and names
// the budget they answered to (-soft-budget, or -max-nodes when no soft
// budget was given).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/cnum"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/opt"
	"repro/internal/qasm"
)

func main() {
	var (
		file      = flag.String("file", "", "circuit file ('-' for stdin)")
		strategy  = flag.String("strategy", "sequential", core.StrategyUsage())
		k         = flag.Int("k", 4, "k for strategy k-operations")
		smax      = flag.Int("smax", 128, "s_max for strategy max-size")
		blocks    = flag.Bool("blocks", false, "exploit repeated blocks (DD-repeating)")
		shots     = flag.Int("shots", 0, "measurement samples to draw from the final state")
		parallel  = flag.Int("parallel", 1, "split -shots into this many seeded sampling streams (seed + stream index) drawn from one simulation; dynamic programs run the streams on this many workers")
		seed      = flag.Int64("seed", 1, "random seed for sampling")
		top       = flag.Int("top", 8, "print the N largest-probability amplitudes")
		showTrace = flag.Bool("trace", false, "print per-step DD sizes")
		dotOut    = flag.String("dot", "", "write the final state DD in Graphviz DOT format to this file")
		optimize  = flag.Bool("optimize", false, "run the peephole optimiser before simulating")
		reorder   = flag.String("reorder", "off", "variable reordering: off, static (interaction-graph order derived before the run), or sifting (dynamic sifting when the state DD grows)")
		stats     = flag.Bool("stats", false, "print engine statistics (cache hit rates, GC, memory layout)")
		noIDSkip  = flag.Bool("no-identity-skip", false, "disable the identity short-circuits in the multiplication kernels (results are identical; use with -stats to measure the optimisation)")

		traceOut   = flag.String("trace-out", "", "write the structured event stream (one JSON object per step/GC/abort) to this file")
		metricsOut = flag.String("metrics-out", "", "write a metrics snapshot to this file (JSON, or Prometheus text if the path ends in .prom)")
		progress   = flag.Bool("progress", false, "print throttled progress lines to stderr while simulating")
		pprofDir   = flag.String("pprof", "", "write cpu.pprof and heap.pprof profiles into this directory")

		timeout    = flag.Duration("timeout", 0, "abort the simulation after this wall-clock duration (0 = none)")
		maxNodes   = flag.Int("max-nodes", 0, "abort operations whose live DD nodes exceed this budget (0 = unlimited)")
		softBudget = flag.Int("soft-budget", 0, "arm the memory-pressure governor at this live-node target: degrade in stages near it instead of aborting at -max-nodes (0 = off unless -degrade is set)")
		degrade    = flag.String("degrade", "", "governor mode: off (a node-budget abort fails the run instead of replaying the gate run sequentially), ladder (exact measures only), or approx (adds fidelity-bounded truncation; bound is reported)")
		approxNode = flag.Int("approx-nodes", 0, "state-size target of the approximation rung (-degrade approx; 0 = soft budget / 4)")
		ckptPath   = flag.String("checkpoint", "", "save a resumable checkpoint to this file (periodically and on abort)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "gates between periodic checkpoints (0 = checkpoint only on abort)")
		resume     = flag.String("resume", "", "resume from a checkpoint file written by -checkpoint")

		verifyEvery = flag.Int("verify-every", 0, "run integrity verification every N applied gates (0 = off)")
		paranoid    = flag.Bool("paranoid", false, "lockstep-compare every verified state against a dense reference simulation (≤ 24 qubits)")
		fsck        = flag.String("fsck", "", "verify a checkpoint file (format, CRCs, state DD audit) and exit")
	)
	flag.Parse()

	if *fsck != "" {
		runFsck(*fsck)
		return
	}
	if *file == "" {
		fmt.Fprintln(os.Stderr, "ddsim: -file is required")
		flag.Usage()
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	src, err := io.ReadAll(in)
	if err != nil {
		fatal(err)
	}
	text := string(src)

	// The shared strategy table in core also backs the flag's usage
	// string and the ddserve job decoder, so they cannot drift.
	st, err := core.NewStrategy(*strategy, core.StrategyKnobs{K: *k, SMax: *smax})
	if err != nil {
		fatal(err)
	}

	baseOpt := core.Options{
		Strategy:            st,
		UseBlocks:           *blocks,
		RecordTrace:         *showTrace,
		MaxNodes:            *maxNodes,
		Seed:                *seed,
		VerifyEvery:         *verifyEvery,
		Paranoid:            *paranoid,
		DisableIdentitySkip: *noIDSkip,
		Reorder:             *reorder,
		SoftBudget:          *softBudget,
		Degrade:             *degrade,
		ApproxNodes:         *approxNode,
	}
	if *timeout > 0 {
		baseOpt.Deadline = time.Now().Add(*timeout)
	}
	octl, err := setupObservability(*traceOut, *metricsOut, *progress, *pprofDir)
	if err != nil {
		fatal(err)
	}
	if octl != nil {
		baseOpt.EventSink = octl.sink
		baseOpt.Metrics = octl.registry
	}

	// OpenQASM programs containing measurements, resets or classical
	// control run as dynamic circuits: one execution per shot, classical
	// histogram reported.
	if isQASM(text) && hasDynamicOps(text) {
		if *parallel > 1 && (*ckptPath != "" || *resume != "") {
			fmt.Fprintln(os.Stderr, "ddsim: -parallel cannot be combined with -checkpoint or -resume for dynamic programs")
			os.Exit(2)
		}
		// Dynamic programs measure and reset qubits by level between
		// core runs; they do not thread a permutation, so reordering
		// stays off for them.
		if baseOpt.Reorder != "" && baseOpt.Reorder != "off" {
			fmt.Fprintln(os.Stderr, "ddsim: -reorder is ignored for dynamic programs")
			baseOpt.Reorder = "off"
		}
		runDynamic(text, baseOpt, *shots, *parallel, *seed)
		octl.finish()
		return
	}

	c, err := parseAnyText(text)
	if err != nil {
		fatal(err)
	}
	if *optimize {
		optimised, ostats := opt.Optimize(c)
		fmt.Printf("optimiser:      removed %d of %d gates\n", ostats.Removed(), c.GateCount())
		c = optimised
	}

	runOpt := baseOpt
	eng := dd.New()
	runOpt.Engine = eng
	if *resume != "" {
		ck, err := core.LoadCheckpoint(*resume, eng)
		if err != nil {
			fatal(err)
		}
		// Recorded checkpoint settings win unless the matching flag was
		// given explicitly on this invocation: -seed overrides the
		// recorded seed, -strategy overrides the recorded strategy.
		seedSet, strategySet := false, false
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed":
				seedSet = true
			case "strategy":
				strategySet = true
			}
		})
		if strategySet {
			ck.Strategy = "" // deliberate override; skip the mismatch check
		} else {
			runOpt.Strategy = nil // adopt the recorded strategy
		}
		runOpt, err = core.ResumeOptions(runOpt, c, ck)
		if err != nil {
			fatal(err)
		}
		if runOpt.Strategy != nil {
			st = runOpt.Strategy
		} else {
			runOpt.Strategy = st
		}
		if !seedSet {
			*seed = ck.Seed
		}
		fmt.Printf("resumed:        %s at gate %d of %d (seed %d, strategy %s, format v%d)\n",
			*resume, ck.NextGate, c.GateCount(), *seed, st.Name(), ck.Version)
	}
	// saved names the checkpoint file once this run has written one: a
	// verified run skips its abort checkpoint when the state fails
	// verification, so a failure may leave none behind.
	saved := ""
	if *ckptPath != "" {
		runOpt.CheckpointEvery = *ckptEvery
		runOpt.OnCheckpoint = func(ck *core.Checkpoint) error {
			if err := core.SaveCheckpoint(*ckptPath, ck); err != nil {
				return err
			}
			saved = *ckptPath
			return nil
		}
	}

	// The budget the ladder answers to: the soft budget, which defaults
	// to -max-nodes, or -max-nodes alone for a run that only replays.
	governedBudget := *softBudget
	if governedBudget == 0 {
		governedBudget = *maxNodes
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := core.RunContext(ctx, c, runOpt)
	stop()
	if err != nil {
		// The partial run's telemetry is the interesting part of an
		// aborted run; flush it before reportFailure exits.
		octl.finish()
		reportFailure(res, c, err, saved, governedBudget)
	}

	fmt.Printf("circuit:        %s (%d qubits, %d gates, depth %d)\n",
		name(c), c.NQubits, c.GateCount(), c.Depth())
	fmt.Printf("strategy:       %s (blocks: %v)\n", st.Name(), *blocks)
	if *parallel > 1 && *shots > 0 {
		fmt.Printf("parallel:       %d sampling streams from one simulation (seed %d + stream index)\n",
			len(batch.SplitShots(*shots, *parallel)), *seed)
	}
	fmt.Printf("runtime:        %v\n", res.Duration)
	fmt.Printf("mat-vec steps:  %d\n", res.MatVecSteps)
	fmt.Printf("mat-mat steps:  %d\n", res.MatMatSteps)
	if len(res.Degradations) > 0 {
		fmt.Printf("governor:       %s\n", governorSummary(res, governedBudget))
	}
	if *verifyEvery > 0 || *paranoid {
		fmt.Printf("verification:   drift %.2e\n", res.NormDrift)
	}
	fmt.Printf("state DD size:  %d nodes\n", res.Engine.SizeV(res.State))
	fmt.Printf("norm:           %.9f\n", res.State.Norm())
	if *reorder != "" && *reorder != "off" {
		order := "identity"
		if res.Order != nil {
			order = fmt.Sprint(res.Order)
		}
		fmt.Printf("reorder:        %s (%d swaps, %d sift passes, final order %s)\n",
			*reorder, res.Stats.ReorderSwaps, res.Stats.SiftPasses, order)
	}

	if *stats {
		printEngineStats(res.Engine)
	}
	if *top > 0 && c.NQubits <= 24 {
		printTopAmplitudes(res, c.NQubits, *top)
	}
	if *shots > 0 {
		counts := sampleShots(res, *shots, *parallel, *seed)
		fmt.Printf("samples (%d shots):\n", *shots)
		type kv struct {
			idx uint64
			n   int
		}
		var sorted []kv
		for idx, n := range counts {
			sorted = append(sorted, kv{idx, n})
		}
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].n != sorted[j].n {
				return sorted[i].n > sorted[j].n
			}
			return sorted[i].idx < sorted[j].idx // ties in basis-state order, not map order
		})
		for _, e := range sorted {
			fmt.Printf("  |%0*b>  %d\n", c.NQubits, e.idx, e.n)
		}
	}
	if *showTrace {
		fmt.Println("trace (gate index, op nodes, state nodes):")
		for _, tp := range res.Trace {
			fmt.Printf("  %6d %8d %8d\n", tp.GateIndex, tp.OpSize, tp.StateSize)
		}
		fmt.Println("final per-level profile:", dd.LevelProfile(res.State.NodesByLevel()))
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			fatal(err)
		}
		if err := dd.DotV(f, res.State, name(c)); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("state DD written to %s\n", *dotOut)
	}
	octl.finish()
}

// parseAnyText auto-detects OpenQASM vs the native format.
func parseAnyText(text string) (*circuit.Circuit, error) {
	if isQASM(text) {
		prog, err := qasm.ParseString(text)
		if err != nil {
			return nil, err
		}
		return prog.Circuit, nil
	}
	return circuit.ParseString(text)
}

func isQASM(text string) bool {
	return strings.Contains(text, "OPENQASM") || strings.Contains(text, "qreg")
}

func hasDynamicOps(text string) bool {
	for _, kw := range []string{"measure", "reset", "if"} {
		for _, line := range strings.Split(text, "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, kw) {
				return true
			}
		}
	}
	return false
}

// governorSummary renders the degradation journal for the "governor"
// line: how many actions, how many of them replayed a gate run, the
// live-node budget they answered to, and the fidelity bound.
func governorSummary(res *core.Result, budget int) string {
	bound := "all exact"
	if res.FidelityBound < 1 {
		bound = fmt.Sprintf("fidelity ≥ %.6g", res.FidelityBound)
	}
	return fmt.Sprintf("%d degradation(s), %d replay(s), under a %d-node budget (%s)",
		len(res.Degradations), res.Replays(), budget, bound)
}

// reportFailure prints a partial-progress report for an aborted run and
// exits with a status distinguishing the failure class (3 deadline,
// 4 budget, 5 canceled, 6 recovered panic / injected fault,
// 7 state corruption, 8 parked under memory pressure).
func reportFailure(res *core.Result, c *circuit.Circuit, err error, ckptPath string, budget int) {
	var re *core.RunError
	if !errors.As(err, &re) {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ddsim: %v\n", err)
	if res != nil {
		fmt.Fprintf(os.Stderr, "  gates applied:  %d of %d\n", res.GatesApplied, c.GateCount())
		fmt.Fprintf(os.Stderr, "  live nodes:     %d\n",
			res.Engine.VNodeCount()+res.Engine.MNodeCount())
		fmt.Fprintf(os.Stderr, "  peak op matrix: %d nodes\n", res.Stats.PeakMatrixSize)
		if len(res.Degradations) > 0 {
			fmt.Fprintf(os.Stderr, "  governor:       %s\n", governorSummary(res, budget))
		}
		fmt.Fprintf(os.Stderr, "  runtime:        %v\n", res.Duration)
	}
	if ckptPath != "" {
		fmt.Fprintf(os.Stderr, "  checkpoint:     %s (resume with -resume %s)\n", ckptPath, ckptPath)
	}
	switch re.Kind {
	case core.FailureDeadline:
		os.Exit(3)
	case core.FailureBudget:
		os.Exit(4)
	case core.FailureCanceled:
		os.Exit(5)
	case core.FailureCorruption:
		os.Exit(7)
	case core.FailurePressure:
		os.Exit(8)
	default:
		os.Exit(6)
	}
}

// runFsck verifies a checkpoint file and exits: 0 when sound, 7 when
// corrupt (bad magic, CRC mismatch, truncation, failed state audit),
// 1 for other errors (e.g. the file does not exist).
func runFsck(path string) {
	rep, err := core.VerifyCheckpoint(path)
	if rep != nil {
		fmt.Printf("checkpoint:     %s (format v%d)\n", path, rep.Version)
		fmt.Printf("circuit:        %s (%d qubits, resumes at gate %d)\n",
			rep.CircuitName, rep.NQubits, rep.NextGate)
		if rep.Strategy != "" {
			fmt.Printf("strategy:       %s\n", rep.Strategy)
		}
		fmt.Printf("seed:           %d (%d replays)\n", rep.Seed, rep.Fallbacks)
		fmt.Printf("state:          %d DD nodes, norm %.9f\n", rep.StateNodes, rep.Norm)
		if rep.Order != nil {
			fmt.Printf("order:          %v\n", rep.Order)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddsim: fsck:", err)
		if errors.Is(err, core.ErrCheckpointCorrupt) {
			os.Exit(7)
		}
		os.Exit(1)
	}
	fmt.Println("fsck:           ok")
}

// runDynamic executes a dynamic OpenQASM program shot by shot —
// serially, or fanned out across a worker pool when parallel > 1
// (each shot is a full program execution, so the fan-out is what makes
// large -shots counts tractable).
func runDynamic(text string, opt core.Options, shots, parallel int, seed int64) {
	prog, err := qasm.ParseDynamicString(text)
	if err != nil {
		fatal(err)
	}
	st := opt.Strategy
	if st == nil {
		st = core.Sequential{}
	}
	if shots <= 0 {
		shots = 1
	}
	var counts map[uint64]int
	if parallel > 1 {
		counts, err = runDynamicParallel(prog, opt, shots, parallel, seed)
		if err != nil {
			fatal(err)
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		counts = map[uint64]int{}
		for i := 0; i < shots; i++ {
			res, err := prog.Run(opt, rng)
			if err != nil {
				fatal(err)
			}
			counts[res.Classical]++
		}
	}
	fmt.Printf("dynamic program: %d qubits, %d classical bits, %d ops\n",
		prog.NQubits, prog.NClbits, len(prog.Ops))
	if parallel > 1 {
		fmt.Printf("parallel:        %d shots across %d workers (seed %d + job index)\n",
			shots, parallel, seed)
	}
	fmt.Printf("strategy:        %s, %d shot(s)\n", st.Name(), shots)
	type kv struct {
		bits uint64
		n    int
	}
	var sorted []kv
	for b, n := range counts {
		sorted = append(sorted, kv{b, n})
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].n > sorted[j].n })
	fmt.Println("classical outcomes:")
	for _, e := range sorted {
		fmt.Printf("  %0*b  %d\n", prog.NClbits, e.bits, e.n)
	}
}

func name(c *circuit.Circuit) string {
	if c.Name != "" {
		return c.Name
	}
	return "(unnamed)"
}

func printTopAmplitudes(res *core.Result, n, top int) {
	amps := dd.VectorInOrder(res.State, res.Order)
	type entry struct {
		idx uint64
		p   float64
		a   complex128
	}
	var es []entry
	for i, a := range amps {
		if p := cnum.Abs2(a); p > 1e-12 {
			es = append(es, entry{uint64(i), p, a})
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].p > es[j].p })
	if len(es) > top {
		es = es[:top]
	}
	fmt.Printf("top %d amplitudes:\n", len(es))
	for _, e := range es {
		fmt.Printf("  |%0*b>  p=%.6f  amp=%.6f%+.6fi\n", n, e.idx, e.p, real(e.a), imag(e.a))
	}
}

// printEngineStats reports every row of the engine's counter table,
// the per-cache hit rates, the compute tables' slot counts, and
// memory-layer occupancy.
func printEngineStats(e *dd.Engine) {
	s := e.Stats()
	m := e.MemStats()
	fmt.Println("engine statistics:")
	for _, c := range dd.Counters {
		fmt.Printf("  %-24s %12d  %s\n", c.Name, c.Value(&s), c.Help)
	}
	// A never-consulted cache has no hit rate; "0.0%" would read as a
	// pathologically cold cache rather than an unused one.
	rate := func(c dd.CacheStats) string {
		if c.Lookups == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*c.HitRate())
	}
	fmt.Printf("  cache hit rates:  add-v %s, add-m %s, mul-mv %s, mul-mm %s\n",
		rate(s.AddV), rate(s.AddM), rate(s.MulMV), rate(s.MulMM))
	slots := func(n int) string {
		if n == 0 {
			return "-"
		}
		return strconv.Itoa(n)
	}
	fmt.Printf("  compute tables:   add-v %s, add-m %s, mul-mv %s, mul-mm %s\n",
		slots(m.AddVSlots), slots(m.AddMSlots), slots(m.MulMVSlots), slots(m.MulMMSlots))
	fmt.Printf("  unique tables:    v %d/%d slots (%d tombstones), m %d/%d slots (%d tombstones)\n",
		m.VLive, m.VCapacity, m.VTombstones, m.MLive, m.MCapacity, m.MTombstones)
	fmt.Printf("  arenas:           v %d chunks (%d free), m %d chunks (%d free)\n",
		m.VChunks, m.VFree, m.MChunks, m.MFree)
	fmt.Printf("  weight table:     %d representatives\n", e.WeightTableSize())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddsim:", err)
	os.Exit(1)
}

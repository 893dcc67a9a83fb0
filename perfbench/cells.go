package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"fade/internal/experiments"
	"fade/internal/par"
	"fade/internal/runspec"
	"fade/internal/sim"
	"fade/internal/spans"
	"fade/internal/system"
)

// Instruction budgets of the cell workloads: large enough that a cell's
// simulation, not its set-up, is most of its time, small enough that one
// round of every cell takes about two seconds at width two, so a timed
// phase holds several rounds to take the median over.
const (
	sweepInstrs = 30_000
	exactInstrs = 15_000
)

// sweepCellSet is the fig9 ∪ fig11c cell set: the five monitors over their
// suites × {unaccelerated, blocking, non-blocking FADE}, fast-forward on as
// on the command line, de-duplicated by spec hash (fig9's FADE column and
// fig11c's non-blocking column are the same cells).
func sweepCellSet(seed uint64) ([]experiments.Cell, error) {
	o := experiments.Options{Instrs: sweepInstrs, Seed: seed, FastForward: true}
	var cells []experiments.Cell
	seen := map[[32]byte]bool{}
	for _, id := range []string{"fig9", "fig11c"} {
		cs, err := experiments.CellsFor(id, o)
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			if h := c.Spec.Hash(); !seen[h] {
				seen[h] = true
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// exactCellSet is the fault-sweep cell set: every stall severity × the
// five monitors over their suites, invariant checker armed, as
// `fadebench -exp fault-sweep` runs it.
func exactCellSet(seed uint64) ([]experiments.Cell, error) {
	return experiments.CellsFor("fault-sweep",
		experiments.Options{Instrs: exactInstrs, Seed: seed, FastForward: true})
}

// baselineSpec is the KindBaseline spec whose cycles are the denominator
// of s's slowdown.
func baselineSpec(s runspec.Spec) runspec.Spec {
	s = s.Normalize()
	return runspec.Spec{Kind: runspec.KindBaseline, Benchmark: s.Benchmark, Core: s.Core,
		Seed: s.Seed, Instrs: s.Instrs, WarmupInstrs: s.WarmupInstrs, Inject: s.Inject}
}

// primeSpecs returns one cheap run per distinct baseline among cells.
// The process-wide baseline store is keyed without monitor or accel mode,
// so without priming, whichever cell arrives first pays the unmonitored
// baseline and per-cell latency would depend on arrival order. Running
// these in set-up fills the store, so every timed cell does only its own
// simulation.
func primeSpecs(cells []experiments.Cell) []runspec.Spec {
	var out []runspec.Spec
	seen := map[[32]byte]bool{}
	for _, c := range cells {
		if h := baselineSpec(c.Spec).Hash(); !seen[h] {
			seen[h] = true
			s := c.Spec
			s.Faults, s.CheckInvariants, s.FastForward, s.Accel = nil, false, true, runspec.AccelFADE
			out = append(out, s)
		}
	}
	return out
}

// cellRun is one executed cell.
type cellRun struct {
	out *system.Outcome
	err error
	lat time.Duration
}

// execAll runs every spec once on a pool of the given width. A failed
// cell is reported in its cellRun, never as a pool error, so one failure
// does not discard the other cells' results. With a trace, par.RunCells
// records one par.cell span per cell and each ExecSpec call gets its own
// system.exec span; the simulator itself runs untraced.
func execAll(tr *spans.Trace, width int, specs []runspec.Spec) []cellRun {
	ctx := spans.NewContext(context.Background(), tr)
	runs, _ := par.RunCells(ctx, width, specs, func(ctx context.Context, s runspec.Spec) (cellRun, error) {
		start := time.Now()
		out, err := system.ExecSpec(spans.WithoutTrace(ctx), s)
		end := time.Now()
		tr.Wall("system.exec", start, end, spans.Str("bench", s.Benchmark), spans.Str("monitor", s.Monitor))
		return cellRun{out: out, err: err, lat: end.Sub(start)}, nil
	})
	return runs
}

func runSweep(p params) (*report, error) {
	return runCells(p, "sweep", sweepCellSet, sweepChecks)
}

func runExact(p params) (*report, error) {
	return runCells(p, "exact", exactCellSet, exactChecks)
}

// setupReps is how many times a workload sets up; setup_s is the median.
const setupReps = 5

// runCells runs a workload whose operations are simulation cells, in whole
// rounds of the same cell set; extraChecks are the workload's own checks
// of round 0.
func runCells(p params, name string, cellSet func(seed uint64) ([]experiments.Cell, error),
	extraChecks func(p params, cells []experiments.Cell, round []cellRun) error) (*report, error) {
	tr := newTrace(p, name)
	var t timing
	var cells []experiments.Cell
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if cells, err = cellSet(p.seed); err != nil {
			return nil, err
		}
		system.ResetBaselineCache()
		for _, r := range execAll(nil, p.width, primeSpecs(cells)) {
			if r.err != nil {
				return nil, fmt.Errorf("%s set-up: %w", name, r.err)
			}
		}
		t.setupS = append(t.setupS, time.Since(start).Seconds())
	}
	specs := make([]runspec.Spec, len(cells))
	for i, c := range cells {
		specs[i] = c.Spec
	}
	fmt.Printf("workload: %s cells=%d instrs=%d seed=%d width=%d setup_reps=%d\n",
		name, len(cells), specs[0].Instrs, specs[0].Seed, p.width, setupReps)

	correct := true
	fail := func(err error) {
		if err != nil {
			correct = false
			fmt.Printf("check failed: %s: %v\n", name, err)
		}
	}

	// The timed phase: whole rounds of every cell until both the run
	// length and the run count are reached. Between rounds, untimed, each
	// round is encoded and let go, as a sweep that writes its results out
	// would, so at most one round's results are alive at once; round 0's
	// encodings are kept for the checks after the timed phase.
	prof := &profiler{on: p.traced}
	var enc0 [][]byte
	var errs0 []error
	var digest [32]byte
	for rounds := 0; t.wall.Seconds() < p.seconds || t.runs < minRuns; rounds++ {
		if err := prof.start(); err != nil {
			return nil, err
		}
		r0 := readRuntime()
		start := time.Now()
		round := execAll(tr, p.width, specs)
		wall := time.Since(start)
		t.rt.add(r0, readRuntime())
		prof.stop()
		var err error
		if t.peakRSS, err = peakRSSMiB(); err != nil {
			return nil, err
		}
		tr.Wall("bench.round", start, start.Add(wall), spans.Num("round", uint64(rounds)), spans.None)
		t.wall += wall
		s := slice{wall: wall}
		for _, r := range round {
			t.attempts++
			t.busy += r.lat
			if r.err != nil {
				t.failures++
				continue
			}
			s.runs++
			s.instrs += r.out.Result.Metrics.Counter("app.instrs")
			t.latMS = append(t.latMS, ms(r.lat))
		}
		t.runs += s.runs
		t.slices = append(t.slices, s)

		enc, errs, d, err := encodeRound(tr, round)
		fail(err)
		if rounds == 0 {
			enc0, errs0, digest = enc, errs, d
			fmt.Printf("digest: %s sha256=%x outcomes=%d\n", name, digest, len(enc))
		} else if d != digest {
			fail(fmt.Errorf("round %d outcomes differ from round 0 (sha256 %x vs %x)", rounds, d, digest))
		}
	}

	round0 := make([]cellRun, len(enc0))
	for i := range enc0 {
		round0[i].err = errs0[i]
		if errs0[i] != nil {
			// A failed cell is counted in failed; an invariant breach is
			// also a wrong answer.
			if errors.Is(errs0[i], sim.ErrInvariantViolated) {
				fail(fmt.Errorf("cell %s: %w", cells[i].Label, errs0[i]))
			}
			continue
		}
		var err error
		if round0[i].out, err = system.DecodeOutcome(enc0[i]); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", cells[i].Label, err)
		}
		fail(checkConservation(cells[i].Label, specs[i].Accel, round0[i].out.Result))
	}
	fail(checkSlowdowns(p.width, specs, round0))
	fail(extraChecks(p, cells, round0))

	rep := &report{Correct: correct, Attempted: t.attempts, Failed: t.failures, Metrics: endToEnd(&t)}
	if p.traced {
		fmt.Printf("traced end-to-end: %s\n", formatMetrics(rep.Metrics))
		var err error
		if rep.Metrics, err = cellLayers(p, &t, specs, round0, tr, prof); err != nil {
			return nil, err
		}
		if err := writeTrace(p, name, tr, prof); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// encodeRound encodes one round's outcomes in cell order and digests
// them: sha256 over the encodings, a failed cell contributing its error
// text instead.
func encodeRound(tr *spans.Trace, round []cellRun) (enc [][]byte, errs []error, digest [32]byte, err error) {
	h := sha256.New()
	enc = make([][]byte, len(round))
	errs = make([]error, len(round))
	for i, r := range round {
		if r.err != nil {
			errs[i] = r.err
			fmt.Fprintf(h, "error: %v\n", r.err)
			continue
		}
		start := time.Now()
		if enc[i], err = system.EncodeOutcome(r.out); err != nil {
			return nil, nil, digest, err
		}
		tr.Wall("system.encode", start, time.Now(), spans.Num("bytes", uint64(len(enc[i]))), spans.None)
		h.Write(enc[i])
	}
	copy(digest[:], h.Sum(nil))
	return enc, errs, digest, nil
}

// checkSlowdowns recomputes every distinct baseline through
// system.ExecSpec of its KindBaseline spec and checks each cell's
// slowdown against it.
func checkSlowdowns(width int, specs []runspec.Spec, round []cellRun) error {
	var bases []runspec.Spec
	index := map[[32]byte]int{}
	for _, s := range specs {
		b := baselineSpec(s)
		if _, ok := index[b.Hash()]; !ok {
			index[b.Hash()] = len(bases)
			bases = append(bases, b)
		}
	}
	outs := execAll(nil, width, bases)
	for i, r := range round {
		if r.err != nil {
			continue
		}
		b := outs[index[baselineSpec(specs[i]).Hash()]]
		if b.err != nil {
			return fmt.Errorf("baseline of %s/%s: %w", specs[i].Benchmark, specs[i].Monitor, b.err)
		}
		if err := checkSlowdown(r.out.Result, b.out.Baseline); err != nil {
			return fmt.Errorf("%s/%s/%s: %w", specs[i].Monitor, specs[i].Benchmark, specs[i].Accel, err)
		}
	}
	return nil
}

// sweepChecks are the sweep's own checks: filtering keeps every verdict,
// on the sweep's cells and on injected-bug cells whose report lists are
// non-empty, and fast-forward keeps every result on a sample of cells.
func sweepChecks(p params, cells []experiments.Cell, round []cellRun) error {
	var specs []runspec.Spec
	var results []*cellRun
	for i := range round {
		if round[i].err == nil {
			specs = append(specs, cells[i].Spec)
			results = append(results, &round[i])
		}
	}
	bug := bugSpecs()
	bugRuns := execAll(nil, p.width, bug)
	for i, r := range bugRuns {
		if r.err != nil {
			return fmt.Errorf("injected-bug cell %s/%s/%s: %w", bug[i].Monitor, bug[i].Benchmark, bug[i].Accel, r.err)
		}
		if len(r.out.Result.Reports) == 0 {
			return fmt.Errorf("injected-bug cell %s/%s/%s raised no report", bug[i].Monitor, bug[i].Benchmark, bug[i].Accel)
		}
		specs = append(specs, bug[i])
		results = append(results, &bugRuns[i])
	}
	groups := map[string]map[string][]string{}
	for i, s := range specs {
		k := verdictKey(s)
		if groups[k] == nil {
			groups[k] = map[string][]string{}
		}
		groups[k][s.Normalize().Accel] = reportStrings(results[i].out.Result)
	}
	if err := checkVerdicts(groups); err != nil {
		return err
	}

	// Every ffSampleEvery-th cell again, cycle-exact.
	const ffSampleEvery = 11
	var exact []runspec.Spec
	var ff []*system.Outcome
	for i := 0; i < len(round); i += ffSampleEvery {
		if round[i].err != nil {
			continue
		}
		s := cells[i].Spec
		s.FastForward = false
		exact = append(exact, s)
		ff = append(ff, round[i].out)
	}
	for i, r := range execAll(nil, p.width, exact) {
		if r.err != nil {
			return fmt.Errorf("cycle-exact rerun of %s/%s: %w", exact[i].Monitor, exact[i].Benchmark, r.err)
		}
		if err := checkSameOutcome(ff[i], r.out); err != nil {
			return fmt.Errorf("fast-forward vs cycle-exact %s/%s/%s: %w", exact[i].Monitor, exact[i].Benchmark, exact[i].Accel, err)
		}
	}
	return nil
}

// exactChecks: every exact cell must have run cycle-exact, which the
// fast-forward counters show as zero jumps.
func exactChecks(_ params, cells []experiments.Cell, round []cellRun) error {
	for i, r := range round {
		if r.err != nil {
			continue
		}
		if j := r.out.Result.Metrics.Counter("sim.ff.jumps"); j != 0 {
			return fmt.Errorf("%s: %d fast-forward jumps in a checked run", cells[i].Label, j)
		}
	}
	return nil
}

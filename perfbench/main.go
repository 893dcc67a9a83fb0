// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator's public packages from outside — experiments, system,
// serve, rcache, runspec, trace and metadata — on three workloads:
//
//	sweep  the headline-figure cells (fig9 ∪ fig11c), fast-forward on
//	exact  the fault-sweep cells with the per-cycle invariant checker armed
//	serve  fadeserve in process behind a loopback HTTP server, closed loop
//
// Each invocation is one fresh process running one workload:
//
//	perfbench --workload sweep --seed 3 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the same work runs with wall spans
// and a CPU profile, and the metrics are the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are one invocation's settings.
type params struct {
	seed    uint64
	seconds float64
	traced  bool
	width   int
	outDir  string // traced runs write their Chrome trace and CPU profile here
}

// minRuns is the fewest runs a timed phase completes, so that at least
// ten samples lie beyond run_ms_p90.
const minRuns = 100

func main() {
	workload := flag.String("workload", "", "workload to run: sweep, exact or serve")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 runs with spans and a CPU profile and reports per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want sweep, exact or serve)\n", *workload)
		os.Exit(2)
	}

	// The width is every CPU the process may use, set explicitly so the
	// runtime default cannot drift between hosts or Go versions.
	width := runtime.NumCPU()
	runtime.GOMAXPROCS(width)
	p := params{seed: *seed, seconds: *seconds, traced: *traced == 1, width: width,
		outDir: ".bench_build/perfbench-out"}

	printFingerprint(p)
	before := probeHost()
	rep, err := run(p)
	after := probeHost()
	fmt.Printf("host: spin_ms before=%.2f after=%.2f walk_ms before=%.2f after=%.2f\n",
		before.spinMS, after.spinMS, before.walkMS, after.walkMS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if p.traced {
		rep.Metrics["host.spin_ms"] = metric{(before.spinMS + after.spinMS) / 2, "ms"}
		rep.Metrics["host.walk_ms"] = metric{(before.walkMS + after.walkMS) / 2, "ms"}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

var workloads = map[string]func(params) (*report, error){
	"sweep": runSweep,
	"exact": runExact,
	"serve": runServe,
}

// timing is what a workload's timed phase measured, shared by every
// workload's end-to-end metrics.
type timing struct {
	setupS   []float64 // one entry per set-up repetition
	latMS    []float64 // one entry per completed run
	slices   []slice   // the timed phase cut into rounds or windows
	runs     int       // runs completed in the timed phase
	peakRSS  float64   // MiB, read right after the timed phase
	wall     time.Duration
	rt       runtimeDelta
	busy     time.Duration // summed run time on the workers
	attempts int
	failures int
}

// slice is one round (cell workloads) or one window (serve) of the timed
// phase; throughput is the median over slices, so a short contended
// phase of the host moves one slice rather than the whole figure.
type slice struct {
	runs   int
	instrs uint64
	wall   time.Duration
}

// endToEnd turns a timed phase into the end-to-end metrics.
func endToEnd(t *timing) map[string]metric {
	var rate, minstr []float64
	var b strings.Builder
	for _, s := range t.slices {
		sec := s.wall.Seconds()
		rate = append(rate, float64(s.runs)/sec)
		minstr = append(minstr, float64(s.instrs)/1e6/sec)
		fmt.Fprintf(&b, " %.1f", rate[len(rate)-1])
	}
	fmt.Printf("slices: runs_per_s%s\n", b.String())
	return map[string]metric{
		"setup_s":          {median(t.setupS), "s"},
		"runs_per_s":       {median(rate), "1/s"},
		"minstr_per_s":     {median(minstr), "Minstr/s"},
		"run_ms_p50":       {quantile(t.latMS, 0.50), "ms"},
		"run_ms_p90":       {quantile(t.latMS, 0.90), "ms"},
		"peak_rss_mb":      {t.peakRSS, "MiB"},
		"alloc_mb_per_run": {float64(t.rt.alloc) / float64(t.runs) / (1 << 20), "MiB"},
	}
}

// median returns the middle value (mean of the two middle ones for an
// even count) of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

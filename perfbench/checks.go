package main

// The benchmark's correctness checks. Each one compares the program's
// output with a value computed apart from it, or with a property the
// method must have; none compares with a stored copy of earlier output.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"fade/internal/obs"
	"fade/internal/runspec"
	"fade/internal/serve"
	"fade/internal/system"
	"fade/internal/trace"
)

// checkSlowdown checks a result's slowdown against a baseline computed
// separately: slowdown = simulated cycles ÷ baseline cycles.
func checkSlowdown(res *system.Result, base *system.BaselineOutcome) error {
	if base == nil || base.Cycles == 0 {
		return fmt.Errorf("baseline has no cycles")
	}
	cycles, ok := counter(res.Metrics, "sim.cycles")
	if !ok {
		return fmt.Errorf("no sim.cycles counter")
	}
	if res.BaselineCycles != base.Cycles {
		return fmt.Errorf("baseline cycles %d, recomputed %d", res.BaselineCycles, base.Cycles)
	}
	if want := float64(cycles) / float64(base.Cycles); res.Slowdown != want {
		return fmt.Errorf("slowdown %v, want %d/%d = %v", res.Slowdown, cycles, base.Cycles, want)
	}
	return nil
}

// checkConservation checks that every monitored event is accounted for
// exactly once on its way from the application core to the monitor:
//
//	app.monitored_events − queue.meq.drops = Σ fu.events.*    (FADE)
//	                                      = moncore.handlers_run (none)
//	fu.unfiltered.sent = moncore.handlers_run                  (FADE)
//	queue.meq.pushes = queue.meq.pops
//	fault.events_dropped = queue.meq.drops
//
// A series that is absent reads as zero, except the ones every run has.
func checkConservation(label, accel string, res *system.Result) error {
	m := res.Metrics
	if m == nil {
		return fmt.Errorf("%s: no metrics", label)
	}
	need := func(name string) (uint64, error) {
		v, ok := counter(m, name)
		if !ok {
			return 0, fmt.Errorf("%s: no %s counter", label, name)
		}
		return v, nil
	}
	monitored, err := need("app.monitored_events")
	if err != nil {
		return err
	}
	handlers, err := need("moncore.handlers_run")
	if err != nil {
		return err
	}
	drops, _ := counter(m, "queue.meq.drops")
	delivered := monitored - drops
	if accel == runspec.AccelNone {
		if delivered != handlers {
			return fmt.Errorf("%s: monitored %d − dropped %d ≠ handlers run %d", label, monitored, drops, handlers)
		}
	} else {
		var fu uint64
		n := 0
		for _, v := range m.Values {
			if strings.HasPrefix(v.Name, "fu.events.") && v.Kind == obs.KindCounter {
				fu += v.Count
				n++
			}
		}
		if n == 0 {
			return fmt.Errorf("%s: no fu.events.* counters on a FADE run", label)
		}
		if delivered != fu {
			return fmt.Errorf("%s: monitored %d − dropped %d ≠ Σ fu.events %d", label, monitored, drops, fu)
		}
		sent, err := need("fu.unfiltered.sent")
		if err != nil {
			return err
		}
		if sent != handlers {
			return fmt.Errorf("%s: fu.unfiltered.sent %d ≠ handlers run %d", label, sent, handlers)
		}
	}
	pushes, err := need("queue.meq.pushes")
	if err != nil {
		return err
	}
	pops, err := need("queue.meq.pops")
	if err != nil {
		return err
	}
	if pushes != pops {
		return fmt.Errorf("%s: queue.meq.pushes %d ≠ pops %d", label, pushes, pops)
	}
	if fd, _ := counter(m, "fault.events_dropped"); fd != drops {
		return fmt.Errorf("%s: fault.events_dropped %d ≠ queue.meq.drops %d", label, fd, drops)
	}
	return nil
}

// counter reads a counter from a snapshot; ok is false when absent.
func counter(s *obs.Snapshot, name string) (uint64, bool) {
	if s == nil {
		return 0, false
	}
	for _, v := range s.Values {
		if v.Name == name && v.Kind == obs.KindCounter {
			return v.Count, true
		}
	}
	return 0, false
}

// verdictKey groups the runs whose verdicts must agree: the same workload
// (benchmark, seed, injected bugs, scale, core) under the same monitor,
// whatever the acceleration mode.
func verdictKey(s runspec.Spec) string {
	s = s.Normalize()
	s.Accel = ""
	s.FastForward = false
	return string(s.CanonicalBytes())
}

// reportStrings renders a result's reports, in order.
func reportStrings(res *system.Result) []string {
	out := make([]string, len(res.Reports))
	for i, r := range res.Reports {
		out[i] = r.String()
	}
	return out
}

// checkVerdicts checks that within each group the report lists of every
// acceleration mode are identical: filtering may drop events, never a
// detection.
func checkVerdicts(groups map[string]map[string][]string) error {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		byAccel := groups[k]
		if len(byAccel) < 2 {
			return fmt.Errorf("verdict group %s has %d acceleration modes, want at least 2", k, len(byAccel))
		}
		want, ok := byAccel[runspec.AccelNone]
		if !ok {
			return fmt.Errorf("verdict group %s has no unaccelerated run", k)
		}
		for accel, got := range byAccel {
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("verdict group %s: %s reports %d, unaccelerated %d (%q vs %q)",
					k, accel, len(got), len(want), first(got), first(want))
			}
		}
	}
	return nil
}

func first(xs []string) string {
	if len(xs) == 0 {
		return ""
	}
	return xs[0]
}

// bugCases pair each monitor with a workload whose report list is never
// empty, so the verdict check also covers detections. Each was checked
// non-empty on seeds 1 to 40; the cells run at bugSeed whatever the
// workload seed, as a fixed fixture. AtomCheck needs no injection: the
// parallel profile's own interleavings raise its reports.
var bugCases = []struct {
	monitor, bench string
	instrs         uint64
	inject         trace.Inject
}{
	{"AddrCheck", "mcf", 50_000, trace.Inject{WildAccessPer1K: 5}},
	{"AtomCheck", "water", 100_000, trace.Inject{}},
	{"MemCheck", "gcc", 50_000, trace.Inject{WildAccessPer1K: 5}},
	{"MemLeak", "omnet", 50_000, trace.Inject{LeakFrac: 0.5}},
	{"TaintCheck", "astar", 300_000, trace.Inject{TaintedJump: true}},
}

const bugSeed = 1

// bugSpecs are the injected-bug cells, each under every acceleration
// mode, at the sweep's configuration otherwise.
func bugSpecs() []runspec.Spec {
	var out []runspec.Spec
	for _, c := range bugCases {
		for _, accel := range []string{runspec.AccelNone, runspec.AccelBlocking, runspec.AccelFADE} {
			s := runspec.Spec{Benchmark: c.bench, Monitor: c.monitor, Accel: accel,
				Seed: bugSeed, Instrs: c.instrs, FastForward: true}
			if c.inject != (trace.Inject{}) {
				inj := c.inject
				s.Inject = &inj
			}
			out = append(out, s.Normalize())
		}
	}
	return out
}

// checkSameOutcome checks that two runs of one spec, one fast-forwarded
// and one cycle-exact, have byte-identical outcomes. The execution mode
// itself and the sim.ff.* series, which exist only when fast-forward is
// armed, are set aside.
func checkSameOutcome(ff, exact *system.Outcome) error {
	a, err := encodeModeFree(ff)
	if err != nil {
		return err
	}
	b, err := encodeModeFree(exact)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		return fmt.Errorf("outcomes differ from byte %d (%d vs %d bytes)", i, len(a), len(b))
	}
	return nil
}

func encodeModeFree(o *system.Outcome) ([]byte, error) {
	if o == nil || o.Result == nil {
		return nil, fmt.Errorf("no result")
	}
	res := *o.Result
	res.Config.FastForward = false
	if res.Metrics != nil {
		m := *res.Metrics
		m.Values = nil
		for _, v := range res.Metrics.Values {
			if !strings.HasPrefix(v.Name, "sim.ff.") {
				m.Values = append(m.Values, v)
			}
		}
		res.Metrics = &m
	}
	return system.EncodeOutcome(&system.Outcome{Result: &res})
}

// checkServeReply checks one reply of the serve workload: it completed,
// a first-time spec was simulated, and a repeat was served from the cache
// byte-identical to the spec's first reply.
func checkServeReply(info serve.RunInfo, repeat bool, firstResult []byte) error {
	if info.State != serve.StateDone {
		return fmt.Errorf("run %s ended %s: %s", info.ID, info.State, info.Error)
	}
	if len(info.Result) == 0 {
		return fmt.Errorf("run %s: no result", info.ID)
	}
	if !repeat {
		if info.Cached {
			return fmt.Errorf("run %s: first-time spec served from the cache", info.ID)
		}
		return nil
	}
	if !info.Cached {
		return fmt.Errorf("run %s: repeated spec not served from the cache", info.ID)
	}
	if !bytes.Equal(info.Result, firstResult) {
		return fmt.Errorf("run %s: repeat's result differs from the first reply", info.ID)
	}
	return nil
}

// checkServeResult checks a served result document against the library's
// result for the same spec, computed separately.
func checkServeResult(doc []byte, res *system.Result) error {
	var v serve.ResultView
	if err := json.Unmarshal(doc, &v); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	metricsJSON, err := res.Metrics.MarshalJSON()
	if err != nil {
		return err
	}
	filterRatio := 0.0
	if res.Filter != nil {
		filterRatio = res.Filter.FilterRatio()
	}
	type field struct {
		name      string
		got, want any
	}
	for _, f := range []field{
		{"benchmark", v.Benchmark, res.Benchmark},
		{"monitor", v.Monitor, res.Config.Monitor},
		{"accel", v.Accel, res.Config.Accel.String()},
		{"seed", v.Seed, res.Config.Seed},
		{"instrs", v.Instrs, res.Instrs},
		{"aborted", v.Aborted, false},
		{"cycles", v.Cycles, res.Cycles},
		{"baseline_cycles", v.BaselineCycles, res.BaselineCycles},
		{"slowdown", v.Slowdown, res.Slowdown},
		{"monitored_events", v.MonitoredEvents, res.MonitoredEvents},
		{"app_ipc", v.AppIPC, res.AppIPC},
		{"filter_ratio", v.FilterRatio, filterRatio},
		{"evq_max", v.EvqMax, res.EvqMax},
		{"app_stall_cycles", v.AppStallCycles, res.AppStallCycles},
		{"handlers_run", v.HandlersRun, res.HandlersRun},
		{"cores", len(v.Cores), len(res.Cores)},
		{"reports", fmt.Sprintf("%q", v.Reports), fmt.Sprintf("%q", reportStrings(res))},
	} {
		if f.got != f.want {
			return fmt.Errorf("%s: served %v, library %v", f.name, f.got, f.want)
		}
	}
	if !bytes.Equal(v.Metrics, metricsJSON) {
		return fmt.Errorf("metrics: served document differs from the library's snapshot")
	}
	return nil
}

// checkCacheHits checks that the result cache served exactly the repeats.
func checkCacheHits(hits uint64, repeats int) error {
	if hits != uint64(repeats) {
		return fmt.Errorf("result cache hits %d, repeated requests %d", hits, repeats)
	}
	return nil
}

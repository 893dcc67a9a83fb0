package main

// The traced run's per-layer metrics: wall spans recorded around every
// call the benchmark makes into a layer, a CPU profile of the timed
// phase, counters read from each run's metrics snapshot, and small
// timings of single layers on the workload's own inputs.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"fade/internal/isa"
	"fade/internal/metadata"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/spans"
	"fade/internal/system"
	"fade/internal/trace"
)

// newTrace returns the run's span ring, nil (recording nothing) when the
// run is untraced.
func newTrace(p params, workload string) *spans.Trace {
	if !p.traced {
		return nil
	}
	return spans.New("perfbench-"+workload, 1<<16)
}

// writeTrace writes the spans as Chrome trace JSON and the CPU profile,
// one file per timed segment (`go tool pprof` merges several).
func writeTrace(p params, workload string, tr *spans.Trace, prof *profiler) error {
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(p.outDir, fmt.Sprintf("%s-seed%d", workload, p.seed))
	var buf bytes.Buffer
	if err := spans.WriteChromeJSON(&buf, tr); err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", buf.Bytes(), 0o644); err != nil {
		return err
	}
	for i, seg := range prof.segs {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%02d.pprof", base, i), seg, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("trace: %s.trace.json spans=%d dropped=%d, CPU profile %s.cpu*.pprof (%d files)\n",
		base, tr.Len(), tr.Dropped(), base, len(prof.segs))
	return nil
}

// profiler takes a CPU profile of the timed segments of a run: one
// profile per segment, summed when read.
type profiler struct {
	on   bool
	buf  *bytes.Buffer
	segs [][]byte
}

func (c *profiler) start() error {
	if !c.on {
		return nil
	}
	c.buf = &bytes.Buffer{}
	if err := pprof.StartCPUProfile(c.buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	return nil
}

func (c *profiler) stop() {
	if !c.on {
		return
	}
	pprof.StopCPUProfile()
	c.segs = append(c.segs, c.buf.Bytes())
}

// formatMetrics renders metrics as "name=value unit", sorted by name.
func formatMetrics(m map[string]metric) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%.4g %s ", n, m[n].Value, m[n].Unit)
	}
	return strings.TrimSpace(b.String())
}

// profiledPackages are the packages under fade/internal whose CPU share
// the traced run reports as cpu.<name>: every simulator and serving
// package. cpu.runtime and cpu.other take the rest.
var profiledPackages = []string{
	"core", "cpu", "fault", "isa", "mem", "metadata", "monitor", "obs", "par",
	"queue", "rcache", "runspec", "serve", "sim", "spans", "stats", "system", "trace",
}

// cpuShares maps the CPU profiles to cpu.<pkg> metrics: each package's
// self time as a share of all sampled time. Time in the Go runtime's
// helpers (map lookups, allocation, zeroing) is charged to the package
// that called into the runtime, so that a layer's own data structures
// show in its share; only samples with no such caller, such as the
// garbage collector's workers, stay in cpu.runtime.
func cpuShares(prof *profiler, out map[string]metric) error {
	byName := map[string]int64{}
	var total int64
	for _, seg := range prof.segs {
		samples, err := readCPUProfile(seg)
		if err != nil {
			return err
		}
		for _, s := range samples {
			byName[chargedLayer(s.funcs)] += s.ns
			total += s.ns
		}
	}
	for _, pkg := range append(profiledPackages, "runtime", "other") {
		share := 0.0
		if total > 0 {
			share = float64(byName[pkg]) / float64(total)
		}
		out["cpu."+pkg] = metric{share, "share"}
	}
	return nil
}

// chargedLayer is the layer a stack's time is charged to: that of the
// innermost function outside the Go runtime, else the runtime.
func chargedLayer(stack []string) string {
	for _, fn := range stack {
		if l := packageLayer(fn); l != "runtime" {
			return l
		}
	}
	return "runtime"
}

// packageLayer names the layer a function belongs to: the package under
// fade/internal, "runtime" for the Go runtime, else "other".
func packageLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "fade/internal/"); ok {
		if i := strings.IndexByte(rest, '.'); i > 0 {
			rest = rest[:i]
		}
		for _, p := range profiledPackages {
			if p == rest {
				return p
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// runCounters sums counters over results' metrics. Ratios are formed from
// the sums, so each run weighs by its work.
type runCounters struct {
	jumps, awake, skipped, cycles  float64
	fuEvents, unfiltered, handlers float64
}

// add adds one run's metrics, keyed by name.
func (c *runCounters) add(m map[string]float64) {
	c.jumps += m["sim.ff.jumps"]
	c.awake += m["sim.ff.stop.awake"]
	c.skipped += m["sim.ff.skipped_cycles"]
	c.cycles += m["sim.cycles"]
	c.handlers += m["moncore.handlers_run"]
	for n, v := range m {
		if strings.HasPrefix(n, "fu.events.") {
			c.fuEvents += v
		}
	}
	c.unfiltered += m["fu.unfiltered.sent"]
}

func (c *runCounters) metrics(out map[string]metric) {
	out["sim.ff.jumps"] = metric{c.jumps, "count"}
	out["sim.ff.stop_awake"] = metric{c.awake, "count"}
	out["sim.ff.jump_yield"] = metric{ratio(c.jumps, c.jumps+c.awake), "share"}
	out["sim.ff.skipped_share"] = metric{ratio(c.skipped, c.cycles), "share"}
	out["fu.events"] = metric{c.fuEvents, "count"}
	out["fu.filter_ratio"] = metric{ratio(c.fuEvents-c.unfiltered, c.fuEvents), "share"}
	out["moncore.handlers_run"] = metric{c.handlers, "count"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshotValues keys a result's metrics snapshot by name.
func snapshotValues(res *system.Result) map[string]float64 {
	m := map[string]float64{}
	for _, v := range res.Metrics.Values {
		m[v.Name] = v.Num
	}
	return m
}

// commonLayers are the metrics every workload reports the same way.
func commonLayers(p params, t *timing, prof *profiler, tr *spans.Trace, specs []runspec.Spec, outs []*system.Outcome) (map[string]metric, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("no specs to time the layers on")
	}
	out := map[string]metric{}
	if err := cpuShares(prof, out); err != nil {
		return nil, err
	}
	out["go.gc_cycles"] = metric{float64(t.rt.gc), "count"}
	out["go.gc_cpu_share"] = metric{ratio(t.rt.gcCPU, t.rt.totCPU), "share"}
	out["par.busy_share"] = metric{ratio(t.busy.Seconds(), float64(p.width)*t.wall.Seconds()), "share"}
	out["system.exec_ms_p50"] = metric{execSelfP50(tr), "ms"}
	out["trace.ns_per_instr"] = metric{traceNsPerInstr(specs), "ns"}
	load, setRange := metadataNs(specs[0])
	out["metadata.load_ns"] = metric{load, "ns"}
	out["metadata.setrange_ns"] = metric{setRange, "ns"}
	out["runspec.hash_us"] = metric{hashUS(specs), "us"}
	enc, dec, kb, hit, put, err := codecAndCache(outs)
	if err != nil {
		return nil, err
	}
	out["system.encode_us"] = metric{enc, "us"}
	out["system.decode_us"] = metric{dec, "us"}
	out["system.outcome_kb"] = metric{kb, "KiB"}
	out["rcache.hit_us"] = metric{hit, "us"}
	out["rcache.put_us"] = metric{put, "us"}
	return out, nil
}

// cellLayers are the per-layer metrics of a cell workload. The counters
// cover one round, which every round repeats exactly.
func cellLayers(p params, t *timing, specs []runspec.Spec, round []cellRun, tr *spans.Trace, prof *profiler) (map[string]metric, error) {
	var outs []*system.Outcome
	var rc runCounters
	for _, r := range round {
		if r.err == nil {
			outs = append(outs, r.out)
			rc.add(snapshotValues(r.out.Result))
		}
	}
	out, err := commonLayers(p, t, prof, tr, specs, outs)
	if err != nil {
		return nil, err
	}
	rc.metrics(out)
	// No result cache and no server on this path.
	for _, n := range []string{"rcache.hits", "rcache.misses"} {
		out[n] = metric{0, "count"}
	}
	for _, n := range []string{"serve.queue_wait_ms_p50", "serve.execute_ms_p50", "serve.http_ms_p50"} {
		out[n] = metric{0, "ms"}
	}
	return out, nil
}

// serveLayers are the per-layer metrics of the serve workload. The
// simulator counters cover the first-time replies among the digest's
// replies, which are the same on every run of a seed.
func serveLayers(p params, t *timing, rig *serveRig, specs []runspec.Spec, lib []cellRun,
	hits uint64, misses int, tr *spans.Trace, prof *profiler) (map[string]metric, error) {
	var outs []*system.Outcome
	for _, r := range lib {
		if r.err == nil {
			outs = append(outs, r.out)
		}
	}
	out, err := commonLayers(p, t, prof, tr, specs, outs)
	if err != nil {
		return nil, err
	}
	var rc runCounters
	var wait, exec, httpMS []float64
	for _, c := range rig.clients {
		for i, r := range c.replies {
			if r.err != nil {
				continue
			}
			if i < digestFirst && !r.repeat {
				rc.add(resultMetrics(r.info.Result))
			}
			if i < c.timedAt {
				continue
			}
			sub, start, fin := stamps(r.info)
			wait = append(wait, ms(start.Sub(sub)))
			exec = append(exec, ms(fin.Sub(start)))
			httpMS = append(httpMS, ms(r.lat-fin.Sub(sub)))
		}
	}
	rc.metrics(out)
	out["rcache.hits"] = metric{float64(hits), "count"}
	out["rcache.misses"] = metric{float64(misses), "count"}
	out["serve.queue_wait_ms_p50"] = metric{median(wait), "ms"}
	out["serve.execute_ms_p50"] = metric{median(exec), "ms"}
	out["serve.http_ms_p50"] = metric{median(httpMS), "ms"}
	return out, nil
}

// execSelfP50 is the median self time of the system.exec spans. The
// benchmark records no span inside ExecSpec, so a span's self time is
// its whole duration.
func execSelfP50(tr *spans.Trace) float64 {
	var xs []float64
	for _, s := range tr.Spans() {
		if s.Name == "system.exec" {
			xs = append(xs, float64(s.Dur)/1e3)
		}
	}
	return median(xs)
}

// layerInstrs is how many instructions trace.ns_per_instr generates per
// (profile, seed) pair.
const layerInstrs = 20_000

// traceNsPerInstr times trace.Generator.Next over the workload's
// distinct (profile, seed) pairs.
func traceNsPerInstr(specs []runspec.Spec) float64 {
	seen := map[string]bool{}
	var n uint64
	var d time.Duration
	for _, s := range specs {
		k := fmt.Sprintf("%s/%d", s.Benchmark, s.Seed)
		prof, ok := trace.Lookup(s.Benchmark)
		if seen[k] || !ok || len(seen) >= 32 {
			continue
		}
		seen[k] = true
		g := trace.New(prof, s.Seed, layerInstrs)
		start := time.Now()
		for {
			if _, ok := g.Next(); !ok {
				break
			}
			n++
		}
		d += time.Since(start)
	}
	return ratio(float64(d.Nanoseconds()), float64(n))
}

// metadataNs times metadata.Memory.Load and SetRange over the address
// stream of the workload's first (profile, seed) pair: loads at its
// memory operations' addresses, range sets at its stack frames and heap
// blocks.
func metadataNs(s runspec.Spec) (loadNs, setRangeNs float64) {
	prof, ok := trace.Lookup(s.Benchmark)
	if !ok {
		return 0, 0
	}
	g := trace.New(prof, s.Seed, 200_000)
	var loads []uint32
	var ranges []isa.Instr
	for {
		in, ok := g.Next()
		if !ok {
			break
		}
		switch {
		case in.Op.IsMem():
			loads = append(loads, in.Addr)
		case (in.Op.IsStackUpdate() || in.Op.IsHighLevel()) && in.Size > 0:
			ranges = append(ranges, in)
		}
	}
	m := metadata.NewMemory()
	start := time.Now()
	for i, in := range ranges {
		m.SetRange(in.Addr, in.Size, byte(i)|1)
	}
	setRangeNs = ratio(float64(time.Since(start).Nanoseconds()), float64(len(ranges)))
	var sink byte
	const passes = 5
	start = time.Now()
	for p := 0; p < passes; p++ {
		for _, a := range loads {
			sink ^= m.Load(a)
		}
	}
	loadNs = ratio(float64(time.Since(start).Nanoseconds()), float64(passes*len(loads)))
	probeSink += uint64(sink)
	return loadNs, setRangeNs
}

// hashUS times runspec.Spec.Hash over the workload's specs.
func hashUS(specs []runspec.Spec) float64 {
	const passes = 20
	start := time.Now()
	for p := 0; p < passes; p++ {
		for _, s := range specs {
			h := s.Hash()
			probeSink += uint64(h[0])
		}
	}
	return ratio(float64(time.Since(start).Nanoseconds())/1e3, float64(passes*len(specs)))
}

// codecAndCache times the result codec and the result cache over the
// workload's outcomes: EncodeOutcome, DecodeOutcome, then an rcache
// memory-cache Put and Get of each encoding.
func codecAndCache(outs []*system.Outcome) (encUS, decUS, kb, hitUS, putUS float64, err error) {
	if len(outs) == 0 {
		return 0, 0, 0, 0, 0, fmt.Errorf("no outcomes to time the codec on")
	}
	enc := make([][]byte, len(outs))
	start := time.Now()
	for i, o := range outs {
		if enc[i], err = system.EncodeOutcome(o); err != nil {
			return
		}
	}
	encUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(outs))
	var bytes int
	start = time.Now()
	for _, b := range enc {
		bytes += len(b)
		if _, err = system.DecodeOutcome(b); err != nil {
			return
		}
	}
	decUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(outs))
	kb = float64(bytes) / float64(len(outs)) / 1024

	c := rcache.NewMem(len(enc))
	keys := make([]rcache.Key, len(enc))
	for i := range enc {
		keys[i] = sha256.Sum256(enc[i])
	}
	start = time.Now()
	for i, b := range enc {
		c.Put(keys[i], b)
	}
	putUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(enc))
	start = time.Now()
	for _, k := range keys {
		if _, _, ok := c.Get(k); !ok {
			return 0, 0, 0, 0, 0, fmt.Errorf("rcache lost an entry it was just given")
		}
	}
	hitUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(enc))
	return encUS, decUS, kb, hitUS, putUS, nil
}

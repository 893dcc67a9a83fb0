package main

// Each check is first shown to accept the program's real output, then fed
// a deliberately altered copy that it must reject, so no check is
// vacuous.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"fade/internal/obs"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/serve"
	"fade/internal/system"
)

func exec(t *testing.T, s runspec.Spec) *system.Outcome {
	t.Helper()
	out, err := system.ExecSpec(context.Background(), s)
	if err != nil {
		t.Fatalf("ExecSpec(%+v): %v", s, err)
	}
	return out
}

func small(mon, accel string) runspec.Spec {
	return runspec.Spec{Benchmark: "astar", Monitor: mon, Accel: accel, Seed: 3, Instrs: 20_000, FastForward: true}
}

// withCounter returns a copy of res whose counter name is changed by fn.
func withCounter(t *testing.T, res *system.Result, name string, fn func(uint64) uint64) *system.Result {
	t.Helper()
	cp := *res
	snap := *res.Metrics
	snap.Values = append([]obs.Value(nil), res.Metrics.Values...)
	found := false
	for i, v := range snap.Values {
		if v.Name == name {
			snap.Values[i].Count = fn(v.Count)
			snap.Values[i].Num = float64(snap.Values[i].Count)
			found = true
		}
	}
	if !found {
		t.Fatalf("no counter %s", name)
	}
	cp.Metrics = &snap
	return &cp
}

func withoutSeries(res *system.Result, prefix string) *system.Result {
	cp := *res
	snap := *res.Metrics
	snap.Values = nil
	for _, v := range res.Metrics.Values {
		if !strings.HasPrefix(v.Name, prefix) {
			snap.Values = append(snap.Values, v)
		}
	}
	cp.Metrics = &snap
	return &cp
}

func plusOne(v uint64) uint64 { return v + 1 }

func TestConservationRejectsAlteredCounters(t *testing.T) {
	fade := exec(t, small("MemLeak", runspec.AccelFADE)).Result
	none := exec(t, small("MemLeak", runspec.AccelNone)).Result
	if err := checkConservation("fade", runspec.AccelFADE, fade); err != nil {
		t.Fatalf("real FADE run rejected: %v", err)
	}
	if err := checkConservation("none", runspec.AccelNone, none); err != nil {
		t.Fatalf("real unaccelerated run rejected: %v", err)
	}
	for _, c := range []struct {
		accel string
		res   *system.Result
	}{
		{runspec.AccelFADE, withCounter(t, fade, "moncore.handlers_run", plusOne)},
		{runspec.AccelFADE, withCounter(t, fade, "fu.unfiltered.sent", plusOne)},
		{runspec.AccelFADE, withCounter(t, fade, "fu.events.instr", plusOne)},
		{runspec.AccelFADE, withCounter(t, fade, "queue.meq.pops", plusOne)},
		{runspec.AccelFADE, withoutSeries(fade, "fu.events.")},
		{runspec.AccelNone, withCounter(t, none, "moncore.handlers_run", plusOne)},
		{runspec.AccelNone, withCounter(t, none, "app.monitored_events", plusOne)},
		{runspec.AccelNone, withoutSeries(none, "moncore.handlers_run")},
	} {
		if err := checkConservation("altered", c.accel, c.res); err == nil {
			t.Errorf("altered %s run accepted", c.accel)
		}
	}
}

func TestSlowdownRejectsOffByOne(t *testing.T) {
	s := small("AddrCheck", runspec.AccelBlocking)
	res := exec(t, s).Result
	base := exec(t, baselineSpec(s)).Baseline
	if err := checkSlowdown(res, base); err != nil {
		t.Fatalf("real run rejected: %v", err)
	}
	off := *base
	off.Cycles++
	if checkSlowdown(res, &off) == nil {
		t.Error("baseline off by one accepted")
	}
	if checkSlowdown(withCounter(t, res, "sim.cycles", plusOne), base) == nil {
		t.Error("cycles off by one accepted")
	}
}

func TestVerdictRejectsDroppedReport(t *testing.T) {
	groups := map[string]map[string][]string{}
	for _, s := range bugSpecs()[:3] { // AddrCheck under none, blocking, FADE
		k := verdictKey(s)
		if groups[k] == nil {
			groups[k] = map[string][]string{}
		}
		groups[k][s.Accel] = reportStrings(exec(t, s).Result)
	}
	if len(groups) != 1 {
		t.Fatalf("%d verdict groups, want 1", len(groups))
	}
	for _, g := range groups {
		if len(g[runspec.AccelFADE]) == 0 {
			t.Fatal("injected-bug cell raised no report")
		}
		if err := checkVerdicts(groups); err != nil {
			t.Fatalf("real verdicts rejected: %v", err)
		}
		g[runspec.AccelFADE] = g[runspec.AccelFADE][1:]
	}
	if checkVerdicts(groups) == nil {
		t.Error("dropped report accepted")
	}
}

func TestSameOutcomeRejectsChangedResult(t *testing.T) {
	s := small("TaintCheck", runspec.AccelFADE)
	ff := exec(t, s)
	s.FastForward = false
	exact := exec(t, s)
	if err := checkSameOutcome(ff, exact); err != nil {
		t.Fatalf("fast-forward and cycle-exact runs rejected: %v", err)
	}
	changed := &system.Outcome{Result: withCounter(t, exact.Result, "app.instrs", plusOne)}
	if checkSameOutcome(ff, changed) == nil {
		t.Error("changed counter accepted")
	}
	other := *exact.Result
	other.Slowdown += 1e-9
	if checkSameOutcome(ff, &system.Outcome{Result: &other}) == nil {
		t.Error("changed slowdown accepted")
	}
}

// serveOnce submits one spec to an in-process server and returns the
// run record.
func serveOnce(t *testing.T, req serve.SubmitRequest) (serve.RunInfo, serve.RunInfo) {
	t.Helper()
	srv := serve.New(serve.Options{Workers: 1, Cache: rcache.NewMem(16), TraceCap: -1})
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	first, err := post(http.DefaultClient, ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	again, err := post(http.DefaultClient, ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	return first, again
}

func TestServeChecksRejectAlteredReplies(t *testing.T) {
	req := serve.SubmitRequest{Benchmark: "mcf", Monitor: "MemCheck", Accel: "blocking", Seed: 7, Instrs: 10_000}
	first, again := serveOnce(t, req)
	if err := checkServeReply(first, false, nil); err != nil {
		t.Fatalf("real first reply rejected: %v", err)
	}
	if err := checkServeReply(again, true, first.Result); err != nil {
		t.Fatalf("real repeat rejected: %v", err)
	}
	spec, err := req.Spec(0, serve.DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	lib := exec(t, spec).Result
	if err := checkServeResult(first.Result, lib); err != nil {
		t.Fatalf("real result rejected: %v", err)
	}

	flipped := again
	flipped.Cached = false
	if checkServeReply(flipped, true, first.Result) == nil {
		t.Error("repeat with cached=false accepted")
	}
	flipped = first
	flipped.Cached = true
	if checkServeReply(flipped, false, nil) == nil {
		t.Error("first-time reply with cached=true accepted")
	}

	// One changed byte in the result: a digit of the cycle count, and one
	// inside the metrics snapshot.
	cycles := fmt.Sprintf(`"cycles":%d`, lib.Cycles)
	for _, at := range []int{bytes.Index(first.Result, []byte(cycles)) + len(cycles) - 1,
		bytes.Index(first.Result, []byte(`"app.instrs":`)) + len(`"app.instrs":`)} {
		if at < len(`"cycles":`) {
			t.Fatal("field to alter not found in the result document")
		}
		doc := append([]byte(nil), first.Result...)
		doc[at] = '0' + (doc[at]-'0'+1)%10
		if checkServeResult(doc, lib) == nil {
			t.Errorf("result with byte %d changed accepted by the library comparison", at)
		}
		altered := again
		altered.Result = doc
		if checkServeReply(altered, true, first.Result) == nil {
			t.Errorf("repeat with byte %d changed accepted", at)
		}
	}

	if checkCacheHits(3, 4) == nil || checkCacheHits(4, 3) == nil {
		t.Error("cache hits off by one accepted")
	}
	if err := checkCacheHits(4, 4); err != nil {
		t.Error(err)
	}
}

//go:noinline
func spinForProfile(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestReadCPUProfileChargesLayers(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	probeSink += spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := readCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.ns
		if len(s.funcs) > 0 && strings.HasSuffix(s.funcs[0], ".spinForProfile") {
			spin += s.ns
		}
	}
	if total == 0 || spin*2 < total {
		t.Errorf("spin loop has %d of %d sampled ns, want most", spin, total)
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"fade/internal/metadata.(*Memory).Load", "fade/internal/core.(*FilteringUnit).Tick"}, "metadata"},
		{[]string{"runtime.mapaccess2_fast32", "fade/internal/metadata.(*Memory).Load"}, "metadata"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "fade/internal/sim.(*Scheduler).Run"}, "sim"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"encoding/json.Marshal", "fade/internal/system.EncodeOutcome"}, "other"},
	} {
		if got := chargedLayer(c.stack); got != c.want {
			t.Errorf("chargedLayer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	var ys []float64
	for i := 1; i <= 100; i++ {
		ys = append(ys, float64(i))
	}
	if q := quantile(ys, 0.9); q != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", q)
	}
}

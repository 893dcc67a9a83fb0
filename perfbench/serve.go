package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"fade/internal/experiments"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/serve"
	"fade/internal/spans"
	"fade/internal/system"
)

// The serve workload's make-up. Each client walks its own seeded
// sequence in a closed loop: one request in newEvery is a spec the client
// has not sent before, the rest repeat one of its earlier specs chosen
// uniformly. A client repeats only specs whose first reply it has
// received, so every repeat is a cache hit whatever the timing.
const (
	newEvery    = 4
	servePool   = 8  // first-time specs each client sends in set-up
	digestFirst = 32 // replies per client the result digest covers
)

// serveInstrs are the first-time specs' instruction budgets: small, so a
// simulated request costs milliseconds and a run sees hundreds of them.
var serveInstrs = []uint64{10_000, 20_000, 40_000}

// splitmix is the sequence generator (SplitMix64).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// reply is one completed request.
type reply struct {
	spec   int // index into the client's specs
	repeat bool
	info   serve.RunInfo
	lat    time.Duration
	doneAt time.Duration // completion, from the start of the timed phase
	err    error
}

// serveClient is one closed-loop client and its sequence.
type serveClient struct {
	id      int
	rng     splitmix
	runSeed uint64
	sent    int        // requests drawn so far
	pass    []specKind // the rest of the current pass over serveKinds
	specs   []serve.SubmitRequest
	first   [][]byte // first reply's result document, per spec
	replies []reply
	timedAt int // index of the first reply of the timed phase
}

func newServeClient(runSeed uint64, id int) *serveClient {
	return &serveClient{id: id, runSeed: runSeed, rng: splitmix(runSeed*0x1000193 + uint64(id))}
}

// serveKinds are the (monitor, accel, instrs) kinds of first-time spec.
// A client sends them in passes, each pass every kind once in a seeded
// order, so the mix of simulation costs is the same on every seed and
// over any run length; the seed still picks the order, the benchmarks
// and the workload seeds.
var serveKinds = func() []specKind {
	var kinds []specKind
	for _, mon := range experiments.Monitors() {
		for _, accel := range []string{runspec.AccelNone, runspec.AccelBlocking, runspec.AccelFADE} {
			for _, n := range serveInstrs {
				kinds = append(kinds, specKind{mon, accel, n})
			}
		}
	}
	return kinds
}()

type specKind struct {
	monitor, accel string
	instrs         uint64
}

// nextRequest draws the client's next request: every newEvery-th one (and
// every one when forceNew) is a new spec, the others repeat an earlier
// spec chosen uniformly.
func (c *serveClient) nextRequest(forceNew bool) (spec int, repeat bool) {
	c.sent++
	r := c.rng.next()
	if !forceNew && c.sent%newEvery != 0 && len(c.specs) > 0 {
		return int(r % uint64(len(c.specs))), true
	}
	if len(c.pass) == 0 {
		c.pass = append([]specKind(nil), serveKinds...)
		for i := len(c.pass) - 1; i > 0; i-- {
			j := int(c.rng.next() % uint64(i+1))
			c.pass[i], c.pass[j] = c.pass[j], c.pass[i]
		}
	}
	k := c.pass[0]
	c.pass = c.pass[1:]
	benches := experiments.BenchesFor(k.monitor)
	// Seeds are unique per spec, so each first-time spec also pays for
	// its own unmonitored baseline, the same on every run.
	c.specs = append(c.specs, serve.SubmitRequest{
		Benchmark: benches[r%uint64(len(benches))],
		Monitor:   k.monitor,
		Accel:     k.accel,
		Instrs:    k.instrs,
		Seed:      c.runSeed*1_000_000 + uint64(c.id)*100_000 + uint64(len(c.specs)) + 1,
	})
	c.first = append(c.first, nil)
	return len(c.specs) - 1, false
}

// do sends one request and waits for its reply.
func (c *serveClient) do(hc *http.Client, url string, tr *spans.Trace, phase time.Time, forceNew bool) {
	spec, repeat := c.nextRequest(forceNew)
	body, err := json.Marshal(c.specs[spec])
	if err != nil {
		c.replies = append(c.replies, reply{spec: spec, repeat: repeat, err: err})
		return
	}
	start := time.Now()
	info, err := post(hc, url, body)
	end := time.Now()
	tr.Wall("serve.post", start, end, spans.Num("client", uint64(c.id)), spans.Num("repeat", b2u(repeat)))
	if err == nil && !repeat {
		c.first[spec] = info.Result
	}
	c.replies = append(c.replies, reply{spec: spec, repeat: repeat, info: info,
		lat: end.Sub(start), doneAt: end.Sub(phase), err: err})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func post(hc *http.Client, url string, body []byte) (serve.RunInfo, error) {
	var info serve.RunInfo
	resp, err := hc.Post(url+"/v1/runs?wait=true", "application/json", bytes.NewReader(body))
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("POST /v1/runs: status %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return info, fmt.Errorf("decoding run record: %w", err)
	}
	return info, nil
}

// serveRig is one in-process server with its clients.
type serveRig struct {
	cache   *rcache.Cache
	srv     *serve.Server
	ts      *httptest.Server
	hc      *http.Client
	clients []*serveClient
}

func (r *serveRig) close() {
	r.hc.CloseIdleConnections()
	r.ts.Close()
	r.srv.Close()
}

// setUpServe starts a server with an empty memory result cache, primes
// each client's first specs and sends one repeat per client as warm-up.
func setUpServe(p params) (*serveRig, error) {
	system.ResetBaselineCache()
	cache := rcache.NewMem(1 << 20)
	// Per-run tracing is off: the scheduler keeps every run record, and
	// with it each run's span ring, for the life of the process.
	srv := serve.New(serve.Options{Workers: p.width, Cache: cache, TraceCap: -1})
	ts := httptest.NewServer(srv.Handler())
	rig := &serveRig{cache: cache, srv: srv, ts: ts,
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: p.width}}}
	for i := 0; i < p.width; i++ {
		rig.clients = append(rig.clients, newServeClient(p.seed, i))
	}
	rig.eachClient(func(c *serveClient) {
		for i := 0; i < servePool; i++ {
			c.do(rig.hc, ts.URL, nil, time.Now(), true)
		}
		c.do(rig.hc, ts.URL, nil, time.Now(), false)
	})
	for _, c := range rig.clients {
		for _, r := range c.replies {
			if r.err != nil {
				rig.close()
				return nil, fmt.Errorf("serve set-up: %w", r.err)
			}
		}
	}
	return rig, nil
}

// eachClient runs fn on every client concurrently and waits.
func (r *serveRig) eachClient(fn func(c *serveClient)) {
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

func runServe(p params) (*report, error) {
	tr := newTrace(p, "serve")
	var t timing
	var rig *serveRig
	for i := 0; i < setupReps; i++ {
		if rig != nil {
			rig.close()
		}
		start := time.Now()
		var err error
		if rig, err = setUpServe(p); err != nil {
			return nil, err
		}
		t.setupS = append(t.setupS, time.Since(start).Seconds())
	}
	defer rig.close()
	fmt.Printf("workload: serve clients=%d closed-loop new=1/%d instrs=%v seed=%d width=%d setup_reps=%d\n",
		len(rig.clients), newEvery, serveInstrs, p.seed, p.width, setupReps)

	hits0 := rig.cache.Stats().Hits
	prof := &profiler{on: p.traced}
	if err := prof.start(); err != nil {
		return nil, err
	}
	r0 := readRuntime()
	phase := time.Now()
	rig.eachClient(func(c *serveClient) {
		c.timedAt = len(c.replies)
		for time.Since(phase).Seconds() < p.seconds || len(c.replies) < digestFirst ||
			(len(c.replies)-c.timedAt)*len(rig.clients) < minRuns {
			c.do(rig.hc, rig.ts.URL, tr, phase, false)
		}
	})
	t.wall = time.Since(phase)
	t.rt.add(r0, readRuntime())
	hits := rig.cache.Stats().Hits - hits0
	prof.stop()
	var err error
	if t.peakRSS, err = peakRSSMiB(); err != nil {
		return nil, err
	}

	// Throughput per whole second of the timed phase.
	windows := make([]slice, int(t.wall/time.Second))
	for i := range windows {
		windows[i].wall = time.Second
	}
	misses := 0
	for _, c := range rig.clients {
		for _, r := range c.replies[c.timedAt:] {
			t.attempts++
			if r.err != nil || r.info.State != serve.StateDone {
				t.failures++
				continue
			}
			t.runs++
			t.latMS = append(t.latMS, ms(r.lat))
			var instrs uint64
			if !r.info.Cached {
				misses++
				instrs = uint64(resultMetrics(r.info.Result)["app.instrs"])
			}
			if w := int(r.doneAt / time.Second); w < len(windows) {
				windows[w].runs++
				windows[w].instrs += instrs
			}
			_, start, fin := stamps(r.info)
			t.busy += fin.Sub(start)
		}
	}
	t.slices = windows

	correct := true
	fail := func(err error) {
		if err != nil {
			correct = false
			fmt.Printf("check failed: serve: %v\n", err)
		}
	}
	repeats := 0
	h := sha256.New()
	var firstSpecs []runspec.Spec
	var firstDocs [][]byte
	for _, c := range rig.clients {
		for i, r := range c.replies {
			if r.err != nil {
				continue
			}
			if r.repeat {
				repeats++
			}
			fail(checkServeReply(r.info, r.repeat, c.first[r.spec]))
			if i < digestFirst {
				h.Write(r.info.Result)
			}
			if !r.repeat && r.info.State == serve.StateDone {
				s, err := c.specs[r.spec].Spec(0, serve.DefaultLimits)
				if err != nil {
					fail(err)
					continue
				}
				firstSpecs = append(firstSpecs, s)
				firstDocs = append(firstDocs, r.info.Result)
			}
		}
	}
	fail(checkCacheHits(rig.cache.Stats().Hits, repeats))
	fmt.Printf("digest: serve sha256=%x replies=%d\n", h.Sum(nil), digestFirst*len(rig.clients))
	lib := execAll(tr, p.width, firstSpecs)
	for i, r := range lib {
		if r.err != nil {
			fail(fmt.Errorf("library run of %s/%s: %w", firstSpecs[i].Monitor, firstSpecs[i].Benchmark, r.err))
			continue
		}
		if err := checkServeResult(firstDocs[i], r.out.Result); err != nil {
			fail(fmt.Errorf("%s/%s/%s seed %d: %w", firstSpecs[i].Monitor, firstSpecs[i].Benchmark,
				firstSpecs[i].Accel, firstSpecs[i].Seed, err))
		}
	}

	rep := &report{Correct: correct, Attempted: t.attempts, Failed: t.failures, Metrics: endToEnd(&t)}
	if p.traced {
		fmt.Printf("traced end-to-end: %s\n", formatMetrics(rep.Metrics))
		if rep.Metrics, err = serveLayers(p, &t, rig, firstSpecs, lib, hits, misses, tr, prof); err != nil {
			return nil, err
		}
		if err := writeTrace(p, "serve", tr, prof); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// stamps parses a run record's submitted, started and finished times.
func stamps(info serve.RunInfo) (sub, start, fin time.Time) {
	sub, _ = time.Parse(time.RFC3339Nano, info.SubmittedAt)
	start, _ = time.Parse(time.RFC3339Nano, info.StartedAt)
	fin, _ = time.Parse(time.RFC3339Nano, info.FinishedAt)
	return sub, start, fin
}

// resultMetrics decodes the metrics object of a served result document.
func resultMetrics(doc []byte) map[string]float64 {
	var v struct {
		Metrics struct {
			Metrics map[string]float64 `json:"metrics"`
		} `json:"metrics"`
	}
	if json.Unmarshal(doc, &v) != nil {
		return nil
	}
	return v.Metrics.Metrics
}

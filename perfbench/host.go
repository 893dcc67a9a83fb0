package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// printFingerprint prints what a figure depends on besides the code: the
// CPU, the widths, the collector settings, the toolchain and the sources.
func printFingerprint(p params) {
	fmt.Printf("host: cpu=%q nproc=%d GOMAXPROCS=%d width=%d GOGC=%q GOMEMLIMIT=%q go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), p.width,
		os.Getenv("GOGC"), os.Getenv("GOMEMLIMIT"), runtime.Version(), commit())
}

// cpuModel reads the model name and model number of the first CPU.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	var name, model string
	sc := bufio.NewScanner(f)
	for sc.Scan() && (name == "" || model == "") {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			name = strings.TrimSpace(v)
		case "model":
			model = strings.TrimSpace(v)
		}
	}
	return fmt.Sprintf("%s (model %s)", name, model)
}

// commit names the sources measured by a digest of every Go file and
// go.mod under the working directory, which also works in a checkout
// that is not a repository.
func commit() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil)[:8])
}

// hostProbe is one reading of two fixed loops: a register-only one that
// only CPU frequency and co-runners move, and a 4 MiB random walk (twice
// this host's per-core L2) that shared-cache and memory contention move.
// They tell a reader whether a run landed in a contended phase; no metric
// is ever scaled by them.
type hostProbe struct{ spinMS, walkMS float64 }

const (
	spinIters = 50_000_000
	walkBytes = 4 << 20
	walkSteps = 4_000_000
)

// probeSink keeps the compiler from deleting the probe loops.
var probeSink uint64

func probeHost() hostProbe {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spin := time.Since(start)

	// Sattolo's shuffle makes one cycle through every slot, so the walk
	// touches the whole buffer in an order the prefetchers cannot follow.
	next := make([]uint32, walkBytes/4)
	for i := range next {
		next[i] = uint32(i)
	}
	r := uint64(0x9E3779B97F4A7C15)
	for i := len(next) - 1; i > 0; i-- {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		j := int(r % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	start = time.Now()
	k := uint32(0)
	for i := 0; i < walkSteps; i++ {
		k = next[k]
	}
	walk := time.Since(start)
	probeSink += x + uint64(k)
	return hostProbe{spinMS: ms(spin), walkMS: ms(walk)}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeReading is a point-in-time read of the Go runtime's counters.
type runtimeReading struct {
	alloc  uint64
	gc     uint64
	gcCPU  float64
	totCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeReading{
		alloc:  s[0].Value.Uint64(),
		gc:     s[1].Value.Uint64(),
		gcCPU:  s[2].Value.Float64(),
		totCPU: s[3].Value.Float64(),
	}
}

// runtimeDelta accumulates the runtime's work over the timed segments.
type runtimeDelta struct {
	alloc, gc     uint64
	gcCPU, totCPU float64
}

func (d *runtimeDelta) add(from, to runtimeReading) {
	d.alloc += to.alloc - from.alloc
	d.gc += to.gc - from.gc
	d.gcCPU += to.gcCPU - from.gcCPU
	d.totCPU += to.totCPU - from.totCPU
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. The lists below
// are the ones BENCHMARK.json declares; TestMetricListsMatchBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name string
	Unit string
}

// e2eMetrics are reported by every timed run, on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ingest_events_per_s", "ev/s"},
	{"app_rtt_us_p50", "us"},
	{"query_ms_p50", "ms"},
	{"agg_ms_p50", "ms"},
	{"getlog_ms_p50", "ms"},
	{"stats_ms_p50", "ms"},
	{"heap_peak_mb", "MiB"},
	{"events_stored_frac", "frac"},
	{"cmds_ok_frac", "frac"},
}

// layerMetrics are reported by every traced run, on every workload.
var layerMetrics = []metricDef{
	{"kernel.send_ns_p50", "ns"},
	{"kernel.unmetered_send_ns_p50", "ns"},
	{"kernel.app_rtt_us_p99", "us"},
	{"meter.events_per_flush", "count"},
	{"meter.bytes_per_event", "B"},
	{"netsim.meter_recv_ns_p50", "ns"},
	{"netsim.meter_bytes_per_recv", "B"},
	{"netsim.filter_idle_frac", "frac"},
	{"filter.process_ns_per_event", "ns"},
	{"filter.pipeline_ns_per_event", "ns"},
	{"filter.log_append_ns_per_event", "ns"},
	{"filter.log_bytes_per_event", "B"},
	{"live.tap_ns_per_event", "ns"},
	{"store.append_ns_per_event", "ns"},
	{"store.disk_bytes_per_event", "B"},
	{"store.records_per_segment", "count"},
	{"store.open_reader_ms", "ms"},
	{"query.run_ms_p50", "ms"},
	{"query.scanned_per_matched", "count"},
	{"query.segments_pruned_frac", "frac"},
	{"query.blocks_pruned_frac", "frac"},
	{"query.allocs_per_query", "count"},
	{"agg.eval_ms_p50", "ms"},
	{"agg.ns_per_record", "ns"},
	{"agg.partial_bytes", "B"},
	{"daemon.query_overhead_ms_p50", "ms"},
	{"daemon.reply_bytes_per_query", "B"},
	{"daemon.getlog_ns_per_byte", "ns"},
	{"obs.snapshot_us_p50", "us"},
	{"controller.stats_overhead_ms_p50", "ms"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"layers.sum_ns_per_event", "ns"},
	{"layers.coverage", "frac"},
	{"tracing.ingest_overhead_frac", "frac"},
	{"tracing.query_overhead_frac", "frac"},
}

// report is everything one workload run produced.
type report struct {
	Workload    string
	Provenance  provenance
	Correct     bool
	Attempted   int
	Failed      int
	E2E         map[string]float64
	Layers      map[string]float64 `json:",omitempty"`
	Extra       map[string]float64
	Failures    []string
	Checks      int
	CheckErrors []string
	Samples     map[string][]float64 // latencies (ms) of the successful commands of the measured phase, by kind, in order
	JobRates    []float64            // events per second of each generator job, in order

	spans []span // traced runs only; written beside the report
}

// provenance stamps a result with what produced it.
type provenance struct {
	Seed       int64
	Seconds    int
	Traced     bool
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	Commit     string // VCS revision the binary was built from, when known
	SourceHash string // digest of the repository's Go sources and go.mod files
	Sizes      sizes
}

// Summary is a one-line rendering for the text output.
func (p provenance) Summary() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s commit=%s src=%.12s sizes={%s}",
		p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Commit, p.SourceHash, p.Sizes)
}

func newProvenance(o options, sz sizes) provenance {
	return provenance{
		Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: vcsRevision(), SourceHash: sourceHash("."),
		Sizes: sz,
	}
}

// vcsRevision reads the revision the go command stamped into the
// binary; a build outside a git checkout has none.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}

// sourceHash digests every .go, go.mod and go.sum file under root, so
// a result names the code it measured even where no commit is known.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// method, NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, NaN when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runtimeCounters reads the process-wide counters the per-layer
// runtime metrics difference: heap allocations, total CPU and GC CPU.
type runtimeCounters struct {
	allocs   uint64
	cpuTotal float64
	cpuGC    float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

var runtimeMu sync.Mutex

func readRuntime() runtimeCounters {
	runtimeMu.Lock()
	defer runtimeMu.Unlock()
	metrics.Read(runtimeSamples)
	return runtimeCounters{
		allocs:   runtimeSamples[0].Value.Uint64(),
		cpuTotal: runtimeSamples[1].Value.Float64(),
		cpuGC:    runtimeSamples[2].Value.Float64(),
	}
}

// heapSampler tracks the peak live heap — the bytes the garbage
// collector found reachable at the end of a cycle — while it runs.
// Unlike the allocated heap, it does not depend on when collections
// happen to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in MiB. It runs one
// last collection first, so a heap that grew since the previous cycle
// is counted however the cycles happened to fall.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(max(h.peak, s[0].Value.Uint64())) / (1 << 20)
}

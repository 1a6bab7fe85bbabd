// Command perfbench is the repository's end-to-end benchmark. It boots a
// complete measurement system (core.System), drives it through the
// controller the way a user does — filter, newjob, setflags, addprocess,
// startjob, query, getlog, stats — with its own client/server programs,
// checks every answer, and reports one set of metrics per workload:
// end-to-end metrics in a timed run (--trace 0), per-layer metrics in a
// traced run (--trace 1). README.md explains the workloads and metrics.
//
// Usage:
//
//	perfbench --workload ingest|query|mixed|defects|all --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A full report (provenance,
// every metric, check results, and in traced runs the spans) is written
// under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "ingest, query, mixed, defects, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase, in seconds (sets the workload sizes)")
	fs.IntVar(&traceFlag, "trace", 0, "0: timed run (end-to-end metrics); 1: traced run (per-layer metrics)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for the full report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n",
				o.workload, strings.Join(workloadNames(), ", "))
			return 2
		}
	}
	for _, name := range names {
		rep, err := runWorkload(name, o, sizesFor(name, o.seconds))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if err := writeReport(o, rep); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: report: %v\n", name, err)
			return 1
		}
		printReport(stdout, rep, o.trace)
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every reported metric by name and unit, the
// failures and check outcomes, and then the result line.
func printReport(w io.Writer, rep *report, traced bool) {
	defs, vals := e2eMetrics, rep.E2E
	if traced {
		defs, vals = layerMetrics, rep.Layers
	}
	fmt.Fprintf(w, "workload %s seed %d: %s\n", rep.Workload, rep.Provenance.Seed, rep.Provenance.Summary())
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	extra := make([]string, 0, len(rep.Extra))
	for k := range rep.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "  %-36s %16.6g\n", k, rep.Extra[k])
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  command failed: %s\n", f)
	}
	for _, c := range rep.CheckErrors {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
	fmt.Fprintf(w, "  checks passed: %d/%d\n", rep.Checks-len(rep.CheckErrors), rep.Checks)
	b, _ := json.Marshal(line) // plain floats and strings: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

// writeReport stores the full report, and in traced runs the spans,
// under the output directory.
func writeReport(o options, rep *report) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	mode := "timed"
	if o.trace {
		mode = "traced"
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-%s-seed%d", rep.Workload, mode, o.seed))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if rep.spans == nil {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range rep.spans {
		if err := enc.Encode(&rep.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

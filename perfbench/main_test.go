package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dpm/internal/meter"
)

// tiny sizes run every workload in about a second.
var tiny = map[string]sizes{
	"ingest":  {Setups: 1, WarmJobs: 1, WarmRounds: 100, Pairs: 2, Rounds: 300, Jobs: 2, Cycles: 2},
	"defects": {Setups: 1, WarmJobs: 1, WarmRounds: 100, Pairs: 2, Rounds: 300, Jobs: 2, Cycles: 1},
	"query":   {Setups: 1, WarmJobs: 2, WarmRounds: 150, Pairs: 2, QueryRounds: 2},
	"mixed":   {Setups: 1, WarmJobs: 1, WarmRounds: 100, Pairs: 1, Rounds: 300, Jobs: 2},
}

func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 1, trace: traced}
			rep, err := runWorkload(name, o, tiny[name])
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct {
				t.Errorf("%s traced=%v: checks failed: %s", name, traced, strings.Join(rep.CheckErrors, "; "))
			}
			if rep.Checks < 5 {
				t.Errorf("%s traced=%v: only %d checks ran", name, traced, rep.Checks)
			}
			// Below the daemon's message cap and the controller's reply
			// timeout the closing commands of defects succeed, so the
			// quiescent workloads fail nothing.
			if name != "mixed" && rep.Failed != 0 {
				t.Errorf("%s traced=%v: %d commands failed: %v", name, traced, rep.Failed, rep.Failures)
			}
		}
	}
}

// TestChecksRejectCorruption runs a small job on a real system and
// shows that every check accepts the true expectation and rejects a
// corrupted one.
func TestChecksRejectCorruption(t *testing.T) {
	acct := newAccounts()
	b, err := boot(3, nil, acct)
	if err != nil {
		t.Fatal(err)
	}
	defer b.shutdown()
	j, err := b.runJob(200, 2, true)
	if err != nil {
		t.Fatal(err)
	}

	// Per-type counts.
	table, ok := b.aggregate(j.rules(), "agg count by type")
	if !ok {
		t.Fatalf("aggregate failed: %v", acct.failures)
	}
	want := j.want()
	if want.total() != 2*(4*200+2) {
		t.Fatalf("job expects %d records, want %d", want.total(), 2*(4*200+2))
	}
	if err := checkTypeCounts(table, want); err != nil {
		t.Fatalf("true counts rejected: %v", err)
	}
	for k := range want {
		bad := typeCounts{}
		for k2, v := range want {
			bad[k2] = v
		}
		bad[k]++
		if checkTypeCounts(table, bad) == nil {
			t.Errorf("count check accepted a wrong count for type %d", k)
		}
	}

	// The fetched log, and a truncated one.
	data, ok := b.fetchLog("getlog", "inc")
	if !ok {
		t.Fatalf("getlog failed: %v %v", acct.failures, acct.checkErrs)
	}
	if err := checkBytes(data, data[:len(data)-1]); err == nil {
		t.Error("log check accepted a truncated log")
	}
	var idx logIndex
	if err := idx.update(data); err != nil {
		t.Fatal(err)
	}
	if err := (&logIndex{}).update(data[:len(data)-1]); err == nil {
		t.Error("log index accepted a log ending in a partial line")
	}

	// A window query, against its reference with one record dropped
	// and with one record altered.
	lo, hi := idx.span(0)
	mid := lo + (hi-lo)/2
	got, ok := b.windowQuery(lo, mid)
	if !ok || len(got) < 2 {
		t.Fatalf("window query failed or too small: %d records, %v", len(got), acct.failures)
	}
	ref, err := idx.window(len(idx.recs), lo, mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLines(got, ref); err != nil {
		t.Fatalf("true query answer rejected: %v", err)
	}
	if checkLines(got, ref[1:]) == nil {
		t.Error("query check accepted a reference missing a record")
	}
	altered := append([]string(nil), ref...)
	altered[0] = strings.Replace(altered[0], "cpuTime=", "cpuTime=1", 1)
	if checkLines(got, altered) == nil {
		t.Error("query check accepted an altered record")
	}

	// The mixed workload's bounds: a record the fetched log held must
	// be in the answer, and the answer must hold nothing else.
	q := mixedQuery{lo: lo, hi: mid, fetched: len(data), got: got}
	if err := idx.checkMixed(q); err != nil {
		t.Fatalf("true mixed answer rejected: %v", err)
	}
	q.got = got[1:]
	if idx.checkMixed(q) == nil {
		t.Error("mixed check accepted an answer missing a logged record")
	}
	q.got = append(append([]string(nil), got...), "SEND machine=9 cpuTime=1 procTime=0")
	if idx.checkMixed(q) == nil {
		t.Error("mixed check accepted an answer with a record the log never held")
	}

	// The windowed aggregate against its reference.
	table, ok = b.aggregate(nil, "agg count by machine window 1s")
	if !ok {
		t.Fatalf("aggregate failed: %v", acct.failures)
	}
	groups, err := aggRows(table)
	if err != nil {
		t.Fatal(err)
	}
	ref2 := idx.machineWindowCounts(1000)
	if err := checkGroups(groups, ref2); err != nil {
		t.Fatalf("true aggregate rejected: %v", err)
	}
	for k := range ref2 {
		ref2[k]++
		break
	}
	if checkGroups(groups, ref2) == nil {
		t.Error("aggregate check accepted a wrong group count")
	}

	// stats: the store.appends counter must match exactly.
	b.statsExact()
	b.metered[meter.EvSend]++
	b.statsExact()
	if len(acct.checkErrs) != 1 || !strings.Contains(acct.checkErrs[0], "store.appends") {
		t.Errorf("stats check: want exactly one store.appends failure, got %v", acct.checkErrs)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the reported metrics and
// BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %v, the benchmark reports %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, e2eMetrics)
	same("per_layer", bj.PerLayer, layerMetrics)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
}

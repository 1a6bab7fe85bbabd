package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"
)

// The probes issue the read-side controller commands, check each
// answer, and in traced runs repeat the command as a direct call into
// its layer.

// getlog fetches the filter's log into dest on the controller's
// machine. ok is false when the command failed; the failure is
// counted, and the caller checks the fetched file when it succeeded.
func (b *bench) getlog(dest string) bool {
	before, lastDest := b.fetched()
	_, d, ok := b.command("getlog", "getlog "+filterName+" "+dest, noOutput)
	if ok {
		n, _ := b.fetched()
		if lastDest == "/usr/"+dest {
			n -= before // incremental: only the new bytes crossed
		}
		b.tr.noteGetlog(d, n)
	}
	return ok
}

// fetched returns how many bytes of the filter's log the controller
// has fetched into its current getlog destination, and that file.
func (b *bench) fetched() (int, string) {
	for _, f := range b.ctl.Filters() {
		if f.Name == filterName {
			return f.LogOffset, f.LogDest
		}
	}
	return 0, ""
}

// windowQuery runs a selective query for lo <= cpuTime < hi and
// returns its sorted canonical result lines.
func (b *bench) windowQuery(lo, hi uint32) ([]string, bool) {
	rule := fmt.Sprintf("cpuTime>=%d,cpuTime<%d", lo, hi)
	out, d, ok := b.command("query", "query "+filterName+" qres "+rule, wantOutput("query '"+filterName+"': segments="))
	if !ok {
		return nil, false
	}
	data, err := b.ctlFile("qres")
	var lines []string
	if err == nil {
		lines, err = resultLines(data)
	}
	b.acct.check("query "+rule+" result file", err)
	if err != nil {
		return nil, false
	}
	b.tr.directQuery(b, rule, d, len(out)+len(data))
	return lines, true
}

// aggregate runs "query f ares <rules> <spec>" and returns the
// rendered table.
func (b *bench) aggregate(rules []string, spec string) ([]byte, bool) {
	line := strings.Join(append([]string{"query", filterName, "ares"}, append(rules, spec)...), " ")
	_, d, ok := b.command("agg", line, wantOutput("1/1 filters reporting"))
	if !ok {
		return nil, false
	}
	data, err := b.ctlFile("ares")
	b.acct.check(line+" result file", err)
	if err != nil {
		return nil, false
	}
	b.tr.directAgg(b, strings.Join(rules, "\n"), spec, d)
	return data, true
}

// jobCounts checks a finished job's stored records by type through
// the controller's pushed-down aggregate, selecting the job's
// processes by machine and pid.
func (b *bench) jobCounts(j *job) {
	if data, ok := b.aggregate(j.rules(), "agg count by type"); ok {
		b.acct.check("job "+j.name+" counts by type", checkTypeCounts(data, j.want()))
	}
}

// rules selects the job's processes, one selection rule each.
func (j *job) rules() []string {
	rules := make([]string, len(j.procs))
	for i, p := range j.procs {
		rules[i] = fmt.Sprintf("machine=%d,pid=%d", p.machine, p.pid)
	}
	return rules
}

// want is what a metered job must leave in the store, by type.
func (j *job) want() typeCounts {
	want := make(typeCounts)
	for t, n := range perPair(j.rounds) {
		want[t] = n * int64(j.pairs)
	}
	return want
}

// stats runs the cluster stats command and returns its output.
func (b *bench) stats() (string, bool) {
	out, d, ok := b.command("stats", "stats", wantOutput(fmt.Sprintf("stats: %d/%d machines reporting", len(machines), len(machines))))
	if ok {
		b.tr.directStats(b, d)
	}
	return out, ok
}

// statsExact runs stats while the store is quiescent: the cluster's
// store.appends counter must equal the records the jobs stored.
func (b *bench) statsExact() {
	if out, ok := b.stats(); ok {
		n, err := statsCounter(out, "store.appends")
		if err == nil && n != b.expected() {
			err = fmt.Errorf("store.appends = %d, want %d", n, b.expected())
		}
		b.acct.check("stats store.appends", err)
	}
}

// fetchLog waits until the filter's log holds every stored record,
// fetches it with getlog into dest, and checks the fetched file
// against the log. ok is false when the command failed (counted) or
// the check failed (recorded).
func (b *bench) fetchLog(what, dest string) ([]byte, bool) {
	want, err := b.completeLog()
	if err != nil {
		b.acct.check(what, err)
		return nil, false
	}
	if !b.getlog(dest) {
		return nil, false
	}
	got, err := b.ctlFile(dest)
	if err == nil {
		err = checkBytes(got, want)
	}
	b.acct.check(what, err)
	return got, err == nil
}

// completeLog waits until the filter's flat log holds a line for every
// record the store holds — the log writer trails the store — and
// returns it.
func (b *bench) completeLog() ([]byte, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, err := b.logBytes()
		if err != nil {
			return nil, err
		}
		lines, stored := int64(bytes.Count(data, []byte{'\n'})), b.appends.Load()
		if lines >= stored {
			return data, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("log holds %d records after 10s, the store %d", lines, stored)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

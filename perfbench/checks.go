package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// logIndex indexes the filter's flat log as the benchmark has read it:
// one entry per record line with the two header fields the reference
// answers need.
type logIndex struct {
	data []byte
	recs []logRec
}

type logRec struct {
	time     uint32 // cpuTime
	machine  uint16
	off, end uint32 // the line is data[off:end], without its '\n'
}

// update replaces the indexed log with data, which must extend what
// was indexed before, and indexes the new lines.
func (x *logIndex) update(data []byte) error {
	if !bytes.HasPrefix(data, x.data) {
		return errors.New("log is not an extension of the log read before")
	}
	off := len(x.data)
	x.data = data
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return fmt.Errorf("log ends in a partial line at byte %d", off)
		}
		line := data[off : off+nl]
		m, t, err := headerFields(line)
		if err != nil {
			return fmt.Errorf("log line at byte %d: %w", off, err)
		}
		x.recs = append(x.recs, logRec{time: t, machine: m, off: uint32(off), end: uint32(off + nl)})
		off += nl + 1
	}
	return nil
}

// headerFields extracts machine and cpuTime from a log line
// ("<EVENT> machine=M cpuTime=T ...").
func headerFields(line []byte) (uint16, uint32, error) {
	f := strings.Fields(string(line[:min(len(line), 64)]))
	if len(f) < 3 || !strings.HasPrefix(f[1], "machine=") || !strings.HasPrefix(f[2], "cpuTime=") {
		return 0, 0, fmt.Errorf("unexpected header in %q", line)
	}
	m, err1 := strconv.ParseUint(f[1][len("machine="):], 10, 16)
	t, err2 := strconv.ParseUint(f[2][len("cpuTime="):], 10, 32)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad header numbers in %q", line)
	}
	return uint16(m), uint32(t), nil
}

func (x *logIndex) line(r logRec) []byte { return x.data[r.off:r.end] }

// span returns the cpuTime range of the records from index from on.
func (x *logIndex) span(from int) (lo, hi uint32) {
	for i, r := range x.recs[from:] {
		if i == 0 || r.time < lo {
			lo = r.time
		}
		if i == 0 || r.time > hi {
			hi = r.time
		}
	}
	return lo, hi
}

// window returns the canonical lines of the records among the first n
// with lo <= cpuTime < hi: the answer the store must give to
// "query f dest cpuTime>=lo,cpuTime<hi" over those records.
func (x *logIndex) window(n int, lo, hi uint32) ([]string, error) {
	var out []string
	for _, r := range x.recs[:n] {
		if r.time >= lo && r.time < hi {
			c, err := canonical(x.line(r))
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out, nil
}

// machineWindowCounts is the reference for "agg count by machine
// window <w>": records per (window start, machine).
func (x *logIndex) machineWindowCounts(windowMS uint32) map[[2]uint64]int64 {
	out := make(map[[2]uint64]int64)
	for _, r := range x.recs {
		out[[2]uint64{uint64(r.time - r.time%windowMS), uint64(r.machine)}]++
	}
	return out
}

// canonical renders a record line the way the query path renders the
// records it returns.
func canonical(line []byte) (string, error) {
	ev, err := trace.ParseOne(line)
	if err != nil {
		return "", err
	}
	return ev.Format(), nil
}

// resultLines splits a query result file into its sorted canonical
// lines.
func resultLines(data []byte) ([]string, error) {
	var out []string
	for _, l := range bytes.Split(data, []byte{'\n'}) {
		if len(l) == 0 {
			continue
		}
		c, err := canonical(l)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	sort.Strings(out)
	return out, nil
}

// checkLines compares a query's sorted lines with the reference.
func checkLines(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("record %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// checkSubset reports whether every line of sub (sorted) is in super
// (sorted), as a multiset.
func checkSubset(sub, super []string) error {
	j := 0
	for _, s := range sub {
		for j < len(super) && super[j] < s {
			j++
		}
		if j == len(super) || super[j] != s {
			return fmt.Errorf("record %q missing", s)
		}
		j++
	}
	return nil
}

// checkBytes compares a fetched file with the filter's log.
func checkBytes(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%d bytes, want %d; first difference at byte %d", len(got), len(want), i)
}

// aggRows parses a rendered aggregate table ("agg count by f1,f2 ...")
// into group key → count. Window tables put the window start first.
func aggRows(rendered []byte) (map[[2]uint64]int64, error) {
	lines := strings.Split(strings.TrimRight(string(rendered), "\n"), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[len(lines)-1], "groups=") {
		return nil, fmt.Errorf("not an aggregate table: %q", rendered)
	}
	out := make(map[[2]uint64]int64)
	for _, l := range lines[2 : len(lines)-1] {
		f := strings.Fields(l)
		if len(f) < 3 || len(f) > 4 {
			return nil, fmt.Errorf("bad row %q", l)
		}
		var key [2]uint64
		for i, s := range f[:len(f)-2] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad row %q", l)
			}
			key[i] = v
		}
		n, err := strconv.ParseInt(f[len(f)-1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad row %q", l)
		}
		out[key] = n
	}
	return out, nil
}

// checkTypeCounts compares an "agg count by type" table with the
// counts the generator must have produced.
func checkTypeCounts(rendered []byte, want typeCounts) error {
	rows, err := aggRows(rendered)
	if err != nil {
		return err
	}
	got := make(typeCounts, len(rows))
	for k, n := range rows {
		got[meter.Type(k[0])] = n
	}
	return checkCounts(got, want)
}

// checkCounts compares per-type counts exactly.
func checkCounts(got, want typeCounts) error {
	for t, n := range want {
		if got[t] != n {
			return fmt.Errorf("type %d: %d records, want %d", t, got[t], n)
		}
	}
	for t, n := range got {
		if _, ok := want[t]; !ok {
			return fmt.Errorf("type %d: %d unexpected records", t, n)
		}
	}
	return nil
}

// checkGroups compares an aggregate table with its reference.
func checkGroups(got, want map[[2]uint64]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			return fmt.Errorf("group %v: %d records, want %d", k, got[k], n)
		}
	}
	return nil
}

// statsCounter finds a counter's value in rendered stats output.
func statsCounter(out, name string) (int64, error) {
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) == 2 && f[0] == name {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no counter %s in stats output", name)
}

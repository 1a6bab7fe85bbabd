package agg

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dpm/internal/meter"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// buildTrafficStore writes n SEND/RECEIVE records shaped like a
// metered request/reply workload — two pairs on four machines, inet
// names, one record per millisecond of cpuTime — into a store
// configured as filters configure theirs: block-compressed segments
// rolling into the archival tier 30 s behind the newest record.
func buildTrafficStore(tb testing.TB, n int, cfg store.Config) store.Backend {
	tb.Helper()
	be := store.NewMemBackend()
	st, err := store.Open(be, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		machine, peer := i%4+1, (i+1)%4+1
		pid := 100 + machine
		var line string
		typ := meter.EvSend
		if i%2 == 0 {
			line = fmt.Sprintf("SEND machine=%d cpuTime=%d procTime=%d pid=%d pc=4 sock=3 msgLength=64 destNameLen=16 destName=inet:%d:%d",
				machine, i, i/10, pid, peer, 7000+peer)
		} else {
			typ = meter.EvRecv
			line = fmt.Sprintf("RECEIVE machine=%d cpuTime=%d procTime=%d pid=%d pc=12 sock=3 msgLength=64 sourceNameLen=16 sourceName=inet:%d:%d",
				machine, i, i/10, pid, peer, 1024+peer)
		}
		m := store.Meta{Machine: uint16(machine), Time: uint32(i), Type: uint32(typ), PID: uint32(pid)}
		if err := st.Append(m, line); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		tb.Fatal(err)
	}
	return be
}

// TestAggFoldZeroAlloc gates the aggregate scan path: once the
// partial's groups and the scanner's field slice are warm, folding a
// one-block segment allocates nothing, however many records it holds.
func TestAggFoldZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; allocation gate runs in the non-race pass")
	}
	be := buildTrafficStore(t, 400, store.Config{
		Shards: 1, SegmentCap: 1 << 20, BlockTarget: 1 << 20, Compress: store.CompressBlocks,
	})
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	aq, err := Compile("agg sum(msgLength) by machine,pid window 1s\nmsgLength>0, destName=*\nmsgLength>0, sourceName=*")
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := query.Admitted(rd, aq.Sel)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %d", len(segs))
	}
	p := NewPartial(aq.Spec)
	var line trace.Line
	var stats query.Stats
	if err := foldSegment(p, segs[0], aq, &stats, &line); err != nil {
		t.Fatal(err)
	}
	if p.Records != 400 || stats.BadLines != 0 || stats.Blocks != 1 {
		t.Fatalf("folded %d records (%d bad) from %d blocks, want 400 from one", p.Records, stats.BadLines, stats.Blocks)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := foldSegment(p, segs[0], aq, &stats, &line); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("foldSegment allocates %v per 400-record segment, want 0", n)
	}
}

// BenchmarkAggEval measures the pushed-down aggregate on the shape the
// end-to-end query workload runs: 100k SEND/RECEIVE records in a
// filter-configured store, "agg count by machine window 1s". It reports
// the scan cost per stored record; scripts/bench_filter.sh records it.
func BenchmarkAggEval(b *testing.B) {
	const records = 100_000
	be := buildTrafficStore(b, records, store.Config{Compress: store.CompressBlocks, ArchiveAfter: 30_000})
	rd, err := store.OpenReader(be)
	if err != nil {
		b.Fatal(err)
	}
	aq, err := Compile("agg count by machine window 1s")
	if err != nil {
		b.Fatal(err)
	}
	var ms0, ms1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		p, _, err := Eval(rd, aq, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if p.Records != records {
			b.Fatalf("folded %d records, want %d", p.Records, records)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	b.StopTimer()
	n := float64(b.N) * records
	b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/n, "allocs/record")
}

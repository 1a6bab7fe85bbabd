package query

import (
	"math/rand"
	"testing"

	"dpm/internal/store"
	"dpm/internal/trace"
)

// TestParallelMemoryRatio gates the parallel scan's memory behavior:
// adding a second worker must not multiply bytes per query. The old
// collector folded every segment through trace.Merge — a fresh
// allocation of the whole shard buffer per segment — and each scan
// grew a throwaway matched slice, which together took workers=2 to
// 2.4x the bytes of sequential. With pooled scan buffers and a single
// append+sort fold, the parallel path must stay within 1.3x of the
// sequential walk (a little slack over the ~1.2x target for heap
// noise; the bench gate in scripts/bench_filter.sh enforces the same
// bound on BENCH_filter.json).
func TestParallelMemoryRatio(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; pooled reuse not measurable")
	}
	if testing.Short() {
		t.Skip("benchmark-based gate")
	}
	rng := rand.New(rand.NewSource(7))
	be := buildRandomStore(t, rng, 4000, store.Config{Shards: 8, SegmentCap: 256}, false)
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(workers int) (bytesPerOp int64) {
		q, err := Compile("")
		if err != nil {
			t.Fatal(err)
		}
		q.NoPrune = true
		q.Workers = workers
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(rd, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Events) != 4000 {
					b.Fatalf("scan returned %d events, want 4000", len(res.Events))
				}
			}
		})
		return r.AllocedBytesPerOp()
	}
	seq := measure(1)
	par := measure(2)
	if ratio := float64(par) / float64(seq); ratio > 1.3 {
		t.Fatalf("workers=2 allocates %d bytes/op vs %d sequential (%.2fx), want <= 1.3x",
			par, seq, ratio)
	}
}

// TestQueryRejectNoAlloc gates the selection tier's scan path: rules
// evaluate on the scanned line in place, so a segment whose records
// are all rejected is scanned without a single allocation once the
// scanner and the pooled decoder are warm.
func TestQueryRejectNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; allocation gate runs in the non-race pass")
	}
	be, _ := buildStore(t, 400, store.Config{
		Shards: 1, SegmentCap: 1 << 20, BlockTarget: 1 << 20, Compress: store.CompressBlocks,
	})
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile("msgLength>100000, sock=*\npid=7\nsock=pid\ndestName=sourceName")
	if err != nil {
		t.Fatal(err)
	}
	q.NoPrune = true
	segs, _ := Admitted(rd, q)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %d", len(segs))
	}
	var line trace.Line
	res := scanSegment(q, segs[0], &line)
	if res.err != nil || res.records != 400 || res.bad != 0 || len(res.matched) != 0 {
		t.Fatalf("scan: err=%v records=%d bad=%d matched=%d, want 400 records all rejected",
			res.err, res.records, res.bad, len(res.matched))
	}
	if n := testing.AllocsPerRun(20, func() {
		scanSegment(q, segs[0], &line)
	}); n != 0 {
		t.Fatalf("rejecting a 400-record segment allocates %v, want 0", n)
	}
}

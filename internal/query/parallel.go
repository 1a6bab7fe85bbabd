package query

import (
	"container/heap"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"dpm/internal/store"
	"dpm/internal/trace"
)

// This file is the query engine's multicore execution layer. Sequential
// Run walks each shard's admitted segments lazily on one goroutine; the
// parallel path load-balances segment scans — parse frames, evaluate
// rules, project discards — across a bounded worker pool, then feeds
// the same cpuTime-ordered heap merge. The output is byte-identical to
// sequential Run, order included, because:
//
//   - per-shard event order is a fold of trace.Merge over the shard's
//     segments in rotation order; Merge is concatenation plus a stable
//     sort by cpuTime, so the fold equals appending each segment's
//     matches in task order and stable-sorting the shard buffer once
//     (stable sorting is associative over concatenation) — which is
//     what the collector does, without Merge's per-fold reallocation;
//   - cross-shard order comes from the same cursorHeap with the same
//     shard-id tie-break;
//   - stats are sums of per-segment counters, which commute.
//
// Results flow through one shared bounded channel: workers block when
// the merge goroutine falls behind (backpressure bounds memory at
// roughly queue-depth segments beyond what the in-order fold has
// already consumed), and the merge loop always drains, so no
// configuration of slow shards can deadlock the pool.

// scanTask is one segment to scan. Tasks are numbered in shard-major
// rotation order; the fold consumes results strictly in task order so
// per-shard merges match the sequential cursor exactly.
type scanTask struct {
	idx   int
	shard int
	rs    *store.ReaderSegment
}

// scanResult is one scanned segment's contribution.
type scanResult struct {
	idx     int
	shard   int
	matched []trace.Event
	scanned int // 1 per load attempt (mirrors stats.Scanned)
	blocks  int
	pruned  int // blocks skipped on zone-map evidence
	records int
	bad     int
	err     error
}

// matchedPool recycles per-segment match buffers across scan tasks.
// Without it every segment grows a fresh matched slice that dies as
// soon as the collector copies it out — the allocation storm behind
// the old 2.4x bytes/op blow-up from one worker to two.
var matchedPool = sync.Pool{
	New: func() any { return make([]trace.Event, 0, 512) },
}

func getMatched() []trace.Event { return matchedPool.Get().([]trace.Event)[:0] }

func putMatched(s []trace.Event) {
	if s == nil {
		return
	}
	clear(s[:cap(s)]) // events hold maps; don't pin them from the pool
	matchedPool.Put(s[:0])
}

// scanSegment runs the record-selection tier over one segment: each
// line is scanned in place into line and the rules run on the scan, so
// a rejected record allocates nothing; only a match is materialized and
// projected. res.matched is a pooled scratch buffer, taken on the first
// match; the caller owns returning it. A torn unsealed tail is
// tolerated, as with trace logs.
func scanSegment(q *Query, rs *store.ReaderSegment, line *trace.Line) scanResult {
	res := scanResult{scanned: 1}
	admit := q.Admits
	if q.NoPrune {
		admit = nil
	}
	d := store.AcquireDecoder()
	st, err := rs.Scan(d, admit, func(m store.Meta, b []byte) {
		if line.Parse(b) != nil {
			res.bad++
			return
		}
		ok, discards := q.Match(line)
		if !ok {
			return
		}
		if res.matched == nil {
			res.matched = getMatched()
		}
		res.matched = append(res.matched, project(line.Event(), discards))
	})
	store.ReleaseDecoder(d)
	res.records, res.blocks, res.pruned = st.Records, st.Blocks, st.BlocksPruned
	if err != nil && !errors.Is(err, store.ErrTruncated) {
		putMatched(res.matched)
		return scanResult{err: err}
	}
	return res
}

// add folds one scanned segment's counters into the stats.
func (s *Stats) add(r scanResult) {
	s.Scanned += r.scanned
	s.Blocks += r.blocks
	s.BlocksPruned += r.pruned
	s.Records += r.records
	s.BadLines += r.bad
	s.Matched += len(r.matched)
}

// runParallel executes the query with a pool of workers scanning
// segments concurrently. It mirrors Run exactly: same pruning, same
// per-shard ordering, same heap merge, same stats.
func runParallel(rd *store.Reader, q *Query, workers int) (*Result, error) {
	res := &Result{}

	// Admission pass: prune by footer, number the survivors in
	// shard-major rotation order. Identical decisions to Scan.
	var tasks []scanTask
	shards := rd.Shards()
	for shardID, segs := range shards {
		for _, rs := range segs {
			res.Stats.Segments++
			if rs.Sealed && !q.Admits(rs.Index) {
				res.Stats.Pruned++
				continue
			}
			tasks = append(tasks, scanTask{idx: len(tasks), shard: shardID, rs: rs})
		}
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	// Worker pool: a shared atomic cursor hands out tasks, a shared
	// bounded channel carries results back. The collector below receives
	// unconditionally while waiting for the next in-order result, so a
	// full channel only ever means "workers are ahead of the fold" —
	// they park until the fold catches up.
	var (
		next    atomic.Int64
		results = make(chan scanResult, 2*workers)
		wg      sync.WaitGroup
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var line trace.Line
			for {
				n := int(next.Add(1)) - 1
				if n >= len(tasks) {
					return
				}
				r := scanSegment(q, tasks[n].rs, &line)
				r.idx, r.shard = n, tasks[n].shard
				results <- r
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// In-order fold: buffer out-of-order arrivals, consume strictly by
	// task index, appending each segment's matches to its shard buffer.
	// One stable sort per shard afterwards reproduces the sequential
	// cursor's trace.Merge fold without its quadratic reallocation.
	bufs := make([][]trace.Event, len(shards))
	pending := make(map[int]scanResult, 2*workers)
	var firstErr error
	errIdx := len(tasks)
	want := 0
	for r := range results {
		pending[r.idx] = r
		for {
			nr, ok := pending[want]
			if !ok {
				break
			}
			delete(pending, want)
			want++
			if nr.err != nil {
				// Remember the earliest failure in task order (the one
				// the sequential walk would have hit first) and keep
				// draining so the workers can exit.
				if nr.idx < errIdx {
					firstErr, errIdx = nr.err, nr.idx
				}
				continue
			}
			res.Stats.add(nr)
			bufs[nr.shard] = append(bufs[nr.shard], nr.matched...)
			putMatched(nr.matched)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for s := range bufs {
		buf := bufs[s]
		sort.SliceStable(buf, func(i, j int) bool { return buf[i].CPUTime < buf[j].CPUTime })
	}

	// Cross-shard merge: the same cursorHeap as Scan, over cursors whose
	// segments are already fully loaded.
	var h cursorHeap
	for shardID, buf := range bufs {
		if len(buf) == 0 {
			continue
		}
		heap.Push(&h, &heapEntry{c: &shardCursor{q: q, buf: buf, stats: &res.Stats}, shard: shardID})
	}
	nextSeq := 0
	for h.Len() > 0 {
		e := h[0]
		ev := e.c.buf[e.c.idx]
		e.c.idx++
		ev.Seq = nextSeq
		nextSeq++
		res.Events = append(res.Events, ev)
		if e.c.idx < len(e.c.buf) {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return res, nil
}

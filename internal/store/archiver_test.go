package store

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// archivingConfig rotates every ~26 batches of coolBatch per shard and
// makes a segment cold ~4 rotations later, so a few thousand batches
// fire many archive runs.
var archivingConfig = Config{Shards: 2, SegmentCap: 4 << 10, Compress: CompressBlocks, ArchiveAfter: 1_000}

// coolBatch is batch k of a stream whose cpuTime advances 10 ms a
// batch: one record per machine, carrying its machine and k as seq.
func coolBatch(k, machines int) []BatchRec {
	recs := make([]BatchRec, machines)
	for m := range recs {
		recs[m] = BatchRec{
			Meta: Meta{Machine: uint16(m), Time: uint32(k * 10), Type: 1, PID: uint32(100 + m)},
			Line: []byte(fmt.Sprintf("SEND machine=%d cpuTime=%d procTime=0 pid=%d seq=%d", m, k*10, 100+m, k)),
		}
	}
	return recs
}

// seqsByMachine reads every record through a Reader and returns, per
// machine, how many records carry each seq.
func seqsByMachine(t *testing.T, be Backend) map[uint16]map[int]int {
	t.Helper()
	out := make(map[uint16]map[int]int)
	for _, r := range allRecs(t, be) {
		i := strings.LastIndex(r.Line, "seq=")
		var seq int
		if _, err := fmt.Sscanf(r.Line[i:], "seq=%d", &seq); err != nil {
			t.Fatalf("record %q: %v", r.Line, err)
		}
		if out[r.Meta.Machine] == nil {
			out[r.Meta.Machine] = make(map[int]int)
		}
		out[r.Meta.Machine][seq]++
	}
	return out
}

// checkPrefix asserts each of machines holds seqs 0..n-1 exactly once
// for some n in [lo, hi], and returns the largest n.
func checkPrefix(t *testing.T, be Backend, machines, lo, hi int) int {
	t.Helper()
	seen := seqsByMachine(t, be)
	most := lo
	for m := 0; m < machines; m++ {
		seqs := seen[uint16(m)]
		n := len(seqs)
		if n < lo || n > hi {
			t.Fatalf("machine %d holds %d records, want %d..%d", m, n, lo, hi)
		}
		for seq := 0; seq < n; seq++ {
			if seqs[seq] != 1 {
				t.Fatalf("machine %d holds seq %d %d times", m, seq, seqs[seq])
			}
		}
		most = max(most, n)
	}
	return most
}

// The archiver starts on demand and leaves once archival has caught
// up, with no Close: an owner that never closes its store (a killed
// process, a benchmark's traced filter) must not leak it.
func TestArchiverExitsWhenCaughtUp(t *testing.T) {
	base := runtime.NumGoroutine()
	be := NewMemBackend()
	st, err := Open(be, archivingConfig)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 2000
	for k := 0; k < batches; k++ {
		if err := st.AppendBatch(coolBatch(k, 4)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, baseline %d: archiver still running", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	// Nearly every segment is far colder than ArchiveAfter by the end;
	// only those cooled by appends after the last rotation's signal
	// wait for the next one.
	if stats := st.Stats(); stats.Archived*2 < stats.Rotations {
		t.Fatalf("archived %d of %d rotated segments in the background", stats.Archived, stats.Rotations)
	}
	checkPrefix(t, be, 4, batches, batches)
}

// gateBackend blocks the first Read after arm until release, so a test
// can hold an archive run in flight.
type gateBackend struct {
	*MemBackend
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (b *gateBackend) Read(name string) ([]byte, error) {
	if b.armed.CompareAndSwap(true, false) {
		b.entered <- struct{}{}
		<-b.release
	}
	return b.MemBackend.Read(name)
}

func TestArchiverCloseWaitsForRun(t *testing.T) {
	be := &gateBackend{MemBackend: NewMemBackend(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	cfg := archivingConfig
	cfg.CompactMin = 1 << 20 // only the archiver reads
	st, err := Open(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	be.armed.Store(true)
	k := 0
	for inFlight := false; !inFlight; k++ {
		if k == 5000 {
			t.Fatal("no archive run started")
		}
		if err := st.AppendBatch(coolBatch(k, 4)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-be.entered:
			inFlight = true
		default:
		}
	}
	closed := make(chan struct{})
	go func() {
		_ = st.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with an archive run in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(be.release)
	select {
	case <-closed:
	case <-time.After(20 * time.Second):
		t.Fatal("Close did not return after the run finished")
	}
	archived := st.Stats().Archived
	if archived == 0 {
		t.Fatal("the in-flight run was not committed")
	}
	// Closed, the store still appends but no longer archives in the
	// background.
	for end := k + 1000; k < end; k++ {
		if err := st.AppendBatch(coolBatch(k, 4)); err != nil {
			t.Fatal(err)
		}
	}
	st.archMu.Lock()
	running := st.archRunning
	st.archMu.Unlock()
	if running || st.Stats().Archived != archived {
		t.Fatalf("archiver ran after Close (running %v, archived %d -> %d)", running, archived, st.Stats().Archived)
	}
	checkPrefix(t, be, 4, k, k)
}

var errKilled = errors.New("writer killed")

// dyingBackend stands for a filter killed mid-archive: once an archive
// file has been created, every later write fails, so the inputs of
// that run are never removed and nothing more reaches the backend.
type dyingBackend struct {
	*MemBackend
	dead atomic.Bool
}

func (b *dyingBackend) Create(name string, data []byte) error {
	if b.dead.Load() {
		return errKilled
	}
	err := b.MemBackend.Create(name, data)
	if strings.HasPrefix(name, "a") {
		b.dead.Store(true)
	}
	return err
}

func (b *dyingBackend) Append(name string, data []byte) error {
	if b.dead.Load() {
		return errKilled
	}
	return b.MemBackend.Append(name, data)
}

func (b *dyingBackend) Remove(name string) error {
	if b.dead.Load() {
		return errKilled
	}
	return b.MemBackend.Remove(name)
}

func TestArchiverKilledMidArchive(t *testing.T) {
	be := &dyingBackend{MemBackend: NewMemBackend()}
	st, err := Open(be, archivingConfig)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for ; k < 5000; k++ {
		if err := st.AppendBatch(coolBatch(k, 4)); err != nil {
			break
		}
	}
	if k == 5000 {
		t.Fatal("the writer was never killed")
	}
	_ = st.Close()
	// The dead writer left an archive beside its inputs.
	if len(coveredFiles(be.MemBackend)) == 0 {
		t.Fatal("no interrupted archive left behind")
	}
	// Batch k failed part way: each machine holds k or k+1 records.
	checkPrefix(t, be.MemBackend, 4, k, k+1)
	st2, err := Open(be.MemBackend, archivingConfig)
	if err != nil {
		t.Fatal(err)
	}
	if covered := coveredFiles(be.MemBackend); len(covered) > 0 {
		t.Fatalf("Open left covered inputs behind: %v", covered)
	}
	n := checkPrefix(t, be.MemBackend, 4, k, k+1)
	// The recovered store resumes cleanly after the dead one's last
	// record.
	for end := n + 500; n < end; n++ {
		if err := st2.AppendBatch(coolBatch(n, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := seqsByMachine(t, be.MemBackend)
	for m := 0; m < 4; m++ {
		for seq, c := range seen[uint16(m)] {
			if c != 1 {
				t.Fatalf("machine %d seq %d stored %d times", m, seq, c)
			}
		}
	}
}

// coveredFiles lists the backend's files that dropCovered would drop.
func coveredFiles(be Backend) []string {
	names, _ := be.List()
	byShard := make(map[int][]*SegmentInfo)
	for _, info := range parsedNames(names) {
		byShard[info.Shard] = append(byShard[info.Shard], info)
	}
	var out []string
	for _, infos := range byShard {
		_, covered := dropCovered(infos, (*SegmentInfo).span)
		for _, info := range covered {
			out = append(out, info.Name)
		}
	}
	return out
}

func parsedNames(names []string) []*SegmentInfo {
	var out []*SegmentInfo
	for _, name := range names {
		if sh, start, end, tier, ok := parseSegName(name); ok {
			out = append(out, &SegmentInfo{Name: name, Shard: sh, Start: start, End: end, Tier: tier})
		}
	}
	return out
}

// A crash between creating a merged file and removing its inputs
// leaves both; readers must count each record once, and Open must
// finish the job.
func TestOpenFinishesInterruptedMerge(t *testing.T) {
	for _, tier := range []int{0, 1} {
		t.Run(fmt.Sprintf("tier%d", tier), func(t *testing.T) {
			be := NewMemBackend()
			cfg := Config{Shards: 1, CompactMin: 1 << 20, Compress: CompressBlocks}
			st, err := Open(be, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				sealAt(t, st, uint32(1000*(i+1)), 10)
			}
			run := st.shards[0].sealed[:3]
			recs, _, _, err := st.readRun(run)
			if err != nil {
				t.Fatal(err)
			}
			out, err := encodeSegmentV2(recs, 6, DefaultBlockTarget)
			if err != nil {
				t.Fatal(err)
			}
			merged := segName(0, 1, 3, tier)
			if err := be.Create(merged, out); err != nil {
				t.Fatal(err)
			}
			if got := len(allRecs(t, be)); got != 50 {
				t.Fatalf("reader beside an interrupted merge sees %d records, want 50", got)
			}
			st2, err := Open(be, cfg)
			if err != nil {
				t.Fatal(err)
			}
			names, _ := be.List()
			want := []string{merged, "s0-000004-000004.seg", "s0-000005-000005.seg"}
			if fmt.Sprint(names) != fmt.Sprint(want) {
				t.Fatalf("files after reopen = %v, want %v", names, want)
			}
			if got := len(allRecs(t, be)); got != 50 {
				t.Fatalf("reopened store holds %d records, want 50", got)
			}
			var count uint32
			for _, info := range st2.Segments() {
				count += info.Index.Count
			}
			if count != 50 {
				t.Fatalf("reopened store indexes %d records, want 50", count)
			}
		})
	}
}

func TestDropCovered(t *testing.T) {
	in := []string{
		"s0-000005-000005.seg", "a0-000001-000004.seg", "s0-000001-000001.seg",
		"s0-000003-000004.seg", "a0-000005-000005.seg", "s0-000006-000006.seg",
		"s1-000001-000001.seg",
	}
	segs := parsedNames(in)
	var shard0 []*SegmentInfo
	for _, s := range segs {
		if s.Shard == 0 {
			shard0 = append(shard0, s)
		}
	}
	kept, covered := dropCovered(shard0, (*SegmentInfo).span)
	names := func(ss []*SegmentInfo) string {
		var out []string
		for _, s := range ss {
			out = append(out, s.Name)
		}
		return strings.Join(out, " ")
	}
	if got, want := names(kept), "a0-000001-000004.seg a0-000005-000005.seg s0-000006-000006.seg"; got != want {
		t.Fatalf("kept %s, want %s", got, want)
	}
	if got, want := names(covered), "s0-000001-000001.seg s0-000003-000004.seg s0-000005-000005.seg"; got != want {
		t.Fatalf("covered %s, want %s", got, want)
	}
}

// BenchmarkStoreIngestArchiving is the filter's store sink with the
// archival tier on: 16-record AppendBatch calls into a CompressBlocks
// store whose cpuTime advances 1 ms a record, so segments cool past
// ArchiveAfter and archive while ingest runs. ns/record is the append
// path's cost; the background archiver's own work is not in it, except
// as contention for the CPU and the shard locks. archived_segments
// counts what it rolled into the archival tier once it caught up.
func BenchmarkStoreIngestArchiving(b *testing.B) {
	const batchSize = 16
	lines := make([][]byte, 256)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf("SEND machine=%d cpuTime=%d procTime=%d pid=%d sock=%d msgLength=64 destName=inet:green:7000",
			i%4, i*3, i/8*10, 100+i%4, 3+i%2))
	}
	st, err := Open(NewMemBackend(), Config{Compress: CompressBlocks, ArchiveAfter: 30_000})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]BatchRec, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range batch {
			n := i*batchSize + k
			batch[k] = BatchRec{
				Meta: Meta{Machine: uint16(n % 4), Time: uint32(n), Type: 1, PID: uint32(100 + n%4)},
				Line: lines[n%len(lines)],
			}
		}
		if err := st.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st.archWG.Wait() // let archival catch up before counting it
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/record")
	b.ReportMetric(float64(st.Stats().Archived), "archived_segments")
}

package controller

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dpm/internal/filter"
	"dpm/internal/fsys"
	"dpm/internal/meter"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// logState returns the incremental-getlog bookkeeping for a filter.
func logState(t *testing.T, ctl *Controller, name string) *FilterInfo {
	t.Helper()
	for _, f := range ctl.Filters() {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no filter %q", name)
	return nil
}

func readDest(t *testing.T, ctl *Controller, path string) string {
	t.Helper()
	data, err := ctl.machine.FS().Read(path, testUID)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(data)
}

func TestGetLogIncremental(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	if !strings.Contains(out.String(), "created") {
		t.Fatalf("filter not created: %s", out.String())
	}
	blue, err := c.Machine("blue")
	if err != nil {
		t.Fatal(err)
	}
	log := filter.LogPath("f1")

	// First fetch: a full copy, and the offset starts tracking.
	if err := blue.FS().Append(log, testUID, []byte("line one\n")); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("getlog f1 out")
	if got := readDest(t, ctl, "/usr/out"); got != "line one\n" {
		t.Fatalf("first getlog content %q", got)
	}
	if f := logState(t, ctl, "f1"); f.LogOffset != len("line one\n") {
		t.Fatalf("LogOffset after first getlog = %d", f.LogOffset)
	}

	// Second fetch must transfer only the delta. Plant a marker in the
	// destination: an incremental fetch appends after it, a full copy
	// would wipe it.
	if err := ctl.machine.FS().Remove("/usr/out", testUID); err != nil {
		t.Fatal(err)
	}
	if err := ctl.machine.FS().Create("/usr/out", testUID, fsys.PrivateMode, []byte("MARKER")); err != nil {
		t.Fatal(err)
	}
	if err := blue.FS().Append(log, testUID, []byte("line two\n")); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("getlog f1 out")
	if got := readDest(t, ctl, "/usr/out"); got != "MARKERline two\n" {
		t.Fatalf("incremental getlog did not splice: %q", got)
	}
	if f := logState(t, ctl, "f1"); f.LogOffset != len("line one\nline two\n") {
		t.Fatalf("LogOffset after second getlog = %d", f.LogOffset)
	}

	// An unchanged log transfers nothing and disturbs nothing.
	ctl.Exec("getlog f1 out")
	if got := readDest(t, ctl, "/usr/out"); got != "MARKERline two\n" {
		t.Fatalf("no-op getlog rewrote the destination: %q", got)
	}

	// A same-length in-place rewrite (the counting filter does this
	// every batch) must be detected by the log's new incarnation and
	// refetched whole, not spliced.
	rewritten := "LINE ONE\nLINE TWO\n" // same length as the old content
	if err := blue.FS().Remove(log, testUID); err != nil {
		t.Fatal(err)
	}
	if err := blue.FS().Append(log, testUID, []byte(rewritten)); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("getlog f1 out")
	if got := readDest(t, ctl, "/usr/out"); got != rewritten {
		t.Fatalf("same-length rewrite not detected: %q", got)
	}

	// A shrunken log also falls back to a full copy.
	if err := blue.FS().Remove(log, testUID); err != nil {
		t.Fatal(err)
	}
	if err := blue.FS().Append(log, testUID, []byte("short\n")); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("getlog f1 out")
	if got := readDest(t, ctl, "/usr/out"); got != "short\n" {
		t.Fatalf("shrink not detected: %q", got)
	}
	if f := logState(t, ctl, "f1"); f.LogOffset != len("short\n") {
		t.Fatalf("LogOffset after shrink = %d", f.LogOffset)
	}

	// A different destination restarts from the top: the remembered
	// offset describes the old file, not this one.
	ctl.Exec("getlog f1 elsewhere")
	if got := readDest(t, ctl, "/usr/elsewhere"); got != "short\n" {
		t.Fatalf("new destination got %q", got)
	}
	if f := logState(t, ctl, "f1"); f.LogDest != "/usr/elsewhere" {
		t.Fatalf("LogDest = %q", f.LogDest)
	}
}

// appendLog appends n bytes of numbered trace-like lines to a filter
// log, numbering from first; every line differs, so a misplaced splice
// cannot go unnoticed. It returns the next line number.
func appendLog(t testing.TB, fs *fsys.FS, path string, first, n int) int {
	t.Helper()
	buf := make([]byte, 0, n+64)
	for len(buf) < n {
		buf = append(buf, "type=SEND machine=2 pid=311 sock=4 msgLength=64 seq="...)
		buf = strconv.AppendInt(buf, int64(first), 10)
		buf = append(buf, '\n')
		first++
	}
	if err := fs.Append(path, testUID, buf[:n]); err != nil {
		t.Fatal(err)
	}
	return first
}

// getlogSystem returns a controller with filter f1 on blue and blue's
// file system, where the tests write f1's log directly.
func getlogSystem(t testing.TB) (*Controller, *fsys.FS, *syncWriter) {
	t.Helper()
	c, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	if !strings.Contains(out.String(), "created") {
		t.Fatalf("filter not created: %s", out.String())
	}
	blue, err := c.Machine("blue")
	if err != nil {
		t.Fatal(err)
	}
	return ctl, blue.FS(), out
}

// checkFetched fails unless the controller's dest holds exactly the
// filter's log.
func checkFetched(t *testing.T, ctl *Controller, src *fsys.FS, dest string) {
	t.Helper()
	want, err := src.Read(filter.LogPath("f1"), testUID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctl.machine.FS().Read(dest, testUID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes fetched, log has %d; first difference at %d", dest, len(got), len(want), firstDiff(got, want))
	}
	if f := logState(t, ctl, "f1"); f.LogOffset != len(want) || f.LogDest != dest {
		t.Fatalf("getlog state = %d bytes into %s, want %d into %s", f.LogOffset, f.LogDest, len(want), dest)
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestGetLogPagesPastWireCap fetches a log larger than one wire
// message: the full fetch and a later incremental one both arrive in
// pages and must land byte-equal to the log.
func TestGetLogPagesPastWireCap(t *testing.T) {
	ctl, src, out := getlogSystem(t)
	blue, err := ctl.cluster.Machine("blue")
	if err != nil {
		t.Fatal(err)
	}
	requests := blue.Obs().Counter("daemon.req.getfile")
	log := filter.LogPath("f1")

	next := appendLog(t, src, log, 0, 40<<20)
	before := requests.Load()
	ctl.Exec("getlog f1 big")
	if strings.Contains(out.String(), "getlog:") {
		t.Fatalf("full getlog failed: %s", out.String())
	}
	checkFetched(t, ctl, src, "/usr/big")
	if n := requests.Load() - before; n != 3 {
		t.Fatalf("a 40 MiB log took %d getfile requests, want 3 pages", n)
	}

	appendLog(t, src, log, next, 1<<20+17)
	ctl.Exec("getlog f1 big")
	if strings.Contains(out.String(), "getlog:") {
		t.Fatalf("incremental getlog failed: %s", out.String())
	}
	checkFetched(t, ctl, src, "/usr/big")
}

// TestGetLogIncrementalAllocatesTail pins the cost of an incremental
// getlog to the tail it moves: fetching 64 KiB of new bytes from a
// 32 MiB log must allocate a small multiple of the tail, not of the
// log.
func TestGetLogIncrementalAllocatesTail(t *testing.T) {
	ctl, src, out := getlogSystem(t)
	log := filter.LogPath("f1")
	next := appendLog(t, src, log, 0, 32<<20)
	ctl.Exec("getlog f1 inc")
	// The destination's first append after a full copy regrows it, as
	// any append-only buffer does now and then; measure a later one.
	next = appendLog(t, src, log, next, 64<<10)
	ctl.Exec("getlog f1 inc")
	appendLog(t, src, log, next, 64<<10)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ctl.Exec("getlog f1 inc")
	runtime.ReadMemStats(&m1)
	if strings.Contains(out.String(), "getlog:") {
		t.Fatalf("getlog failed: %s", out.String())
	}
	checkFetched(t, ctl, src, "/usr/inc")
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("incremental getlog of a 64 KiB tail allocated %d bytes", alloc)
	if alloc >= 4<<20 {
		t.Fatalf("incremental getlog of a 64 KiB tail allocated %d bytes", alloc)
	}
}

// BenchmarkGetLog measures getlog end to end — daemon read, reply
// encoding, transport, controller decode, destination write — per
// payload byte: a full fetch of a 4 MiB log, and an incremental fetch
// of a 64 KiB tail.
func BenchmarkGetLog(b *testing.B) {
	const logSize, tail = 4 << 20, 64 << 10
	b.Run("full", func(b *testing.B) {
		ctl, src, _ := getlogSystem(b)
		appendLog(b, src, filter.LogPath("f1"), 0, logSize)
		// Alternating destinations make every fetch a full one.
		dests := [2]string{"full-a", "full-b"}
		benchGetLog(b, logSize, func(int) {}, func(i int) { ctl.Exec("getlog f1 " + dests[i%2]) })
	})
	b.Run("incremental", func(b *testing.B) {
		ctl, src, _ := getlogSystem(b)
		log := filter.LogPath("f1")
		next := 0
		prep := func(i int) {
			if i%256 == 0 {
				// Start a fresh log now and then, so the log and the
				// destination stay small however large b.N grows.
				_ = src.Remove(log, testUID) // absent on the first pass
				next = appendLog(b, src, log, 0, 1<<20)
				ctl.Exec("getlog f1 inc")
			}
			next = appendLog(b, src, log, next, tail)
		}
		benchGetLog(b, tail, prep, func(int) { ctl.Exec("getlog f1 inc") })
	})
}

// benchGetLog times fetch b.N times, each after an untimed prep, and
// reports time and allocation per payload byte.
func benchGetLog(b *testing.B, payload int, prep, fetch func(i int)) {
	b.ReportAllocs()
	var m runtime.MemStats
	var alloc uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prep(i)
		runtime.ReadMemStats(&m)
		start := m.TotalAlloc
		b.StartTimer()
		fetch(i)
		b.StopTimer()
		runtime.ReadMemStats(&m)
		alloc += m.TotalAlloc - start
		b.StartTimer()
	}
	bytes := float64(b.N) * float64(payload)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/bytes, "ns/byte")
	b.ReportMetric(float64(alloc)/bytes, "B/byte")
}

// storeEvent writes one synthetic event into a store with consistent
// frame metadata.
func storeEvent(t *testing.T, st *store.Store, machine int, cpuTime int64, typ meter.Type, pid uint64) {
	t.Helper()
	e := trace.Event{
		Type: typ, Event: typ.String(), Machine: machine, CPUTime: cpuTime,
		Fields: map[string]uint64{"pid": pid, "sock": 3},
		Names:  map[string]meter.Name{},
	}
	m := store.Meta{Machine: uint16(machine), Time: uint32(cpuTime), Type: uint32(typ), PID: uint32(pid)}
	if err := st.Append(m, e.Format()); err != nil {
		t.Fatal(err)
	}
}

func TestQueryCommand(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	// Populate the filter's store directly — the daemon-side query path
	// is what's under test, not the filter's meter loop.
	st := openFilterStore(t, c, ctl, "blue", "f1")
	for i := 0; i < 30; i++ {
		typ := meter.EvSend
		if i%2 == 1 {
			typ = meter.EvRecv
		}
		storeEvent(t, st, i%4+1, int64(i*100), typ, uint64(200+i%4))
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	ctl.Exec("query f1 qout machine=3,type=1")
	if !strings.Contains(out.String(), "query 'f1': segments=") {
		t.Fatalf("no stats line: %s", out.String())
	}
	body := readDest(t, ctl, "/usr/qout")
	events, err := trace.ParseLog([]byte(body))
	if err != nil {
		t.Fatalf("query output does not parse as a trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("selective query matched nothing")
	}
	for _, e := range events {
		if e.Machine != 3 || e.Type != meter.EvSend {
			t.Fatalf("query result leaked machine=%d type=%v", e.Machine, e.Type)
		}
	}

	// No rules: everything comes back, in cpuTime order.
	ctl.Exec("query f1 qall")
	all, err := trace.ParseLog([]byte(readDest(t, ctl, "/usr/qall")))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 30 {
		t.Fatalf("match-all query returned %d events, want 30", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].CPUTime < all[i-1].CPUTime {
			t.Fatalf("query results out of order at %d", i)
		}
	}

	// The rule alphabet is accepted by the command parser, but only
	// after the destination argument.
	ctl.Exec("query f1 qnone machine=1,machine=2")
	if got := readDest(t, ctl, "/usr/qnone"); got != "" {
		t.Fatalf("contradictory query wrote %q", got)
	}
	before := out.String()
	ctl.Exec("query f=1 dest machine=1")
	if !strings.Contains(strings.TrimPrefix(out.String(), before), "bad token") {
		t.Fatal("operator characters accepted in the filter-name position")
	}

	// Unknown filter.
	before = out.String()
	ctl.Exec("query nosuch dest")
	if !strings.Contains(strings.TrimPrefix(out.String(), before), "no filter 'nosuch'") {
		t.Fatalf("unknown filter: %s", strings.TrimPrefix(out.String(), before))
	}
}

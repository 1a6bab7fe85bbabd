package main

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpm/internal/agg"
	"dpm/internal/analysis/live"
	"dpm/internal/filter"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
)

// The traced run records spans in the benchmark's own code, around its
// calls into each layer's public functions: the workload programs'
// sends, a benchmark-owned filter composed of the same exported pieces
// filter.Main uses, and direct repeats of each read-side controller
// command. Spans are kept in memory and written out at the end.

// span is one traced interval, in nanoseconds since the tracer
// started. Parent is 0 for a root span.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds how many spans of one name are written out; the
// durations of all of them still feed the per-layer metrics.
const maxSpans = 2000

// maxCapture bounds the meter-stream bytes the traced filter keeps
// for the live-tap and pipeline replays.
const maxCapture = 16 << 20

type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu     sync.Mutex
	spans  []span
	kept   map[string]int
	durs   map[string][]float64 // ns, every span by name
	counts map[string]float64

	streams  [][][]byte // captured meter stream, per filter connection
	captured int

	// Filled by finish, before the traced system stops.
	meterEvents, meterFlushes, meterBytes float64
	segments, diskBytes, records          float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), kept: map[string]int{},
		durs: map[string][]float64{}, counts: map[string]float64{}}
}

// spanBuf collects one goroutine's spans and counts, merged into the
// tracer when the goroutine is done, so hot loops take no shared lock.
type spanBuf struct {
	t      *tracer
	spans  []span
	kept   map[string]int
	durs   map[string][]float64
	counts map[string]float64
}

// local returns a new buffer; nil when not tracing.
func (t *tracer) local() *spanBuf {
	if t == nil {
		return nil
	}
	return &spanBuf{t: t, kept: map[string]int{}, durs: map[string][]float64{}, counts: map[string]float64{}}
}

// record adds a span and returns its id.
func (sb *spanBuf) record(name string, parent int64, start, end time.Time) int64 {
	return sb.recordID(sb.t.ids.Add(1), name, parent, start, end)
}

// recordID adds a span whose id was taken earlier, so that its
// children could name it as their parent.
func (sb *spanBuf) recordID(id int64, name string, parent int64, start, end time.Time) int64 {
	sb.durs[name] = append(sb.durs[name], float64(end.Sub(start)))
	if sb.kept[name] < maxSpans {
		sb.kept[name]++
		sb.spans = append(sb.spans, span{Name: name, ID: id, Parent: parent,
			Start: int64(start.Sub(sb.t.epoch)), End: int64(end.Sub(sb.t.epoch))})
	}
	return id
}

// merge folds a goroutine's buffer into the tracer.
func (t *tracer) merge(sb *spanBuf) {
	if t == nil || sb == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range sb.spans {
		if t.kept[s.Name] < maxSpans {
			t.kept[s.Name]++
			t.spans = append(t.spans, s)
		}
	}
	for k, v := range sb.durs {
		t.durs[k] = append(t.durs[k], v...)
	}
	for k, v := range sb.counts {
		t.counts[k] += v
	}
}

// send is a workload program's Process.Send, spanned when tracing.
func (sb *spanBuf) send(p *kernel.Process, fd int, data []byte) error {
	if sb == nil {
		_, err := p.Send(fd, data)
		return err
	}
	name := "kernel.send"
	if p.MeterFlags() == 0 {
		name = "kernel.send.unmetered"
	}
	start := time.Now()
	_, err := p.Send(fd, data)
	sb.record(name, 0, start, time.Now())
	return err
}

// tracedFilterMain is the traced run's filter program, started with
// "filter f blue /bin/tracedfilter". It composes the exported pieces
// filter.Main uses, in the same configuration — an Engine with a live
// collector tap, ProcessBatch, a block-compressed store with the
// archive tier, and the flat-log append — but runs each connection's
// chunks straight through them, so every step can be spanned.
func (b *bench) tracedFilterMain(p *kernel.Process) int {
	args := p.Args()
	if len(args) < 2 {
		return b.appError(p, "tracedfilter: usage: name port [descriptions [templates]]")
	}
	name := args[0]
	port, err := strconv.ParseUint(args[1], 10, 16)
	if err != nil {
		return b.appError(p, "tracedfilter: bad port %q", args[1])
	}
	descPath, tmplPath := filter.DefaultDescriptionsPath, filter.DefaultTemplatesPath
	if len(args) > 2 && args[2] != "" {
		descPath = args[2]
	}
	if len(args) > 3 && args[3] != "" {
		tmplPath = args[3]
	}
	descData, err := p.ReadFile(descPath)
	if err != nil {
		return b.appError(p, "tracedfilter: %v", err)
	}
	tmplData, err := p.ReadFile(tmplPath)
	if err != nil {
		tmplData = nil // no templates: keep everything, as filter.Main does
	}
	eng, err := filter.NewEngine(descData, tmplData)
	if err != nil {
		return b.appError(p, "tracedfilter: %v", err)
	}
	reg := p.Machine().Obs()
	st, err := store.Open(store.NewFsysBackend(p.Machine().FS(), p.UID(), filter.StorePath(name)), store.Config{
		Obs:          reg,
		Compress:     store.CompressBlocks,
		ArchiveAfter: 30_000,
	})
	if err != nil {
		return b.appError(p, "tracedfilter: store: %v", err)
	}
	taps := live.Factory()(reg, name)
	lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
	if err == nil {
		err = p.BindPort(lfd, uint16(port))
	}
	if err == nil {
		err = p.Listen(lfd, 32)
	}
	if err != nil {
		return b.appError(p, "tracedfilter: listen: %v", err)
	}
	if c, ok := taps.(filter.TapCloser); ok {
		defer c.Close()
	}
	logPath := filter.LogPath(name)
	for {
		fd, _, err := p.Accept(lfd)
		if err != nil {
			return 0 // killed
		}
		e := eng.Clone()
		e.SetTap(taps.NewTap())
		p.Go(func() { b.tracedConn(p, fd, e, st, logPath) })
	}
}

// tracedConn drains one meter connection through the filter layers.
func (b *bench) tracedConn(p *kernel.Process, fd int, eng *filter.Engine, st *store.Store, logPath string) {
	sb := b.tr.local()
	defer b.tr.merge(sb)
	defer func() { _ = p.Close(fd) }()
	connStart := time.Now()
	conn := sb.t.ids.Add(1)
	var batch filter.Batch
	var rest []byte
	stream := b.tr.newStream()
	for {
		t0 := time.Now()
		data, err := p.Recv(fd, 65536)
		t1 := time.Now()
		if err != nil {
			break
		}
		sb.record("netsim.recv", conn, t0, t1)
		sb.counts["netsim.recvs"]++
		sb.counts["netsim.recv_bytes"] += float64(len(data))
		sb.counts["netsim.recv_ns"] += float64(t1.Sub(t0))
		b.tr.capture(stream, data)
		buf := data
		if len(rest) > 0 {
			buf = append(append([]byte(nil), rest...), data...)
		}
		chunk := sb.t.ids.Add(1)
		rest, err = eng.ProcessBatch(buf, &batch)
		t2 := time.Now()
		sb.record("filter.process", chunk, t1, t2)
		if err != nil {
			b.appError(p, "tracedfilter: %v", err)
			break
		}
		if batch.Len() > 0 {
			if err := st.AppendBatch(batch.StoreRecs()); err != nil {
				b.appError(p, "tracedfilter: store: %v", err)
				break
			}
			t3 := time.Now()
			sb.record("store.append", chunk, t2, t3)
			if err := p.AppendFile(logPath, batch.Lines); err != nil {
				b.appError(p, "tracedfilter: log: %v", err)
				break
			}
			t4 := time.Now()
			sb.record("filter.log_append", chunk, t3, t4)
			sb.counts["filter.events"] += float64(batch.Len())
			sb.counts["filter.log_bytes"] += float64(len(batch.Lines))
		}
		eng.TapFlush()
		batch.Reset()
		sb.recordID(chunk, "filter.chunk", conn, t1, time.Now())
	}
	end := time.Now()
	sb.counts["filter.conn_ns"] += float64(end.Sub(connStart))
	sb.recordID(conn, "filter.conn", 0, connStart, end)
}

// newStream starts a captured stream for one connection.
func (t *tracer) newStream() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.streams = append(t.streams, nil)
	return len(t.streams) - 1
}

// capture keeps a copy of a received chunk, up to maxCapture bytes in
// all. A stream is captured from its start, so a replay sees whole
// frames.
func (t *tracer) capture(stream int, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.captured+len(data) > maxCapture {
		t.captured = maxCapture // stop capturing every stream: each must stay a prefix
		return
	}
	t.captured += len(data)
	t.streams[stream] = append(t.streams[stream], append([]byte(nil), data...))
}

// The read side: each controller command is repeated as a direct call
// into its layer right after it returns. A direct call can fail the way
// the command can (a reader racing segment archival); it is counted
// under direct.failed and gives no sample.

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (b *bench) storeBackend() store.Backend {
	return store.NewFsysBackend(b.blue.FS(), uid, filter.StorePath(filterName))
}

// directQuery repeats a selective query as store.OpenReader plus
// query.Run.
func (t *tracer) directQuery(b *bench, rule string, ctl time.Duration, replyBytes int) {
	if t == nil {
		return
	}
	q, err := query.Compile(rule)
	if err != nil {
		b.acct.check("direct query compiles", err)
		return
	}
	t0 := time.Now()
	rd, err := store.OpenReader(b.storeBackend())
	t1 := time.Now()
	if err != nil {
		t.count("direct.failed", 1)
		return
	}
	a0 := readRuntime().allocs
	res, err := query.Run(rd, q)
	t2 := time.Now()
	a1 := readRuntime().allocs
	if err != nil {
		t.count("direct.failed", 1)
		return
	}
	sb := t.local()
	root := sb.record("direct.query", 0, t0, t2)
	sb.record("store.open_reader", root, t0, t1)
	sb.record("query.run", root, t1, t2)
	sb.record("controller.query", 0, t0.Add(-ctl), t0)
	sb.durs["daemon.query_overhead"] = append(sb.durs["daemon.query_overhead"], float64(ctl-t2.Sub(t0)))
	sb.counts["query.n"]++
	sb.counts["query.allocs"] += float64(a1 - a0)
	sb.counts["query.records"] += float64(res.Stats.Records)
	sb.counts["query.matched"] += float64(res.Stats.Matched)
	sb.counts["query.segments"] += float64(res.Stats.Segments)
	sb.counts["query.pruned"] += float64(res.Stats.Pruned)
	sb.counts["query.blocks"] += float64(res.Stats.Blocks)
	sb.counts["query.blocks_pruned"] += float64(res.Stats.BlocksPruned)
	sb.counts["daemon.reply_bytes"] += float64(replyBytes)
	t.merge(sb)
}

// directAgg repeats a pushed-down aggregate as agg.Eval on a fresh
// store reader.
func (t *tracer) directAgg(b *bench, rules, spec string, ctl time.Duration) {
	if t == nil {
		return
	}
	aq, err := agg.Compile(rules + "\n" + spec)
	if err != nil {
		b.acct.check("direct aggregate compiles", err)
		return
	}
	t0 := time.Now()
	rd, err := store.OpenReader(b.storeBackend())
	t1 := time.Now()
	if err != nil {
		t.count("direct.failed", 1)
		return
	}
	part, st, err := agg.Eval(rd, aq, agg.Options{})
	t2 := time.Now()
	if err != nil {
		t.count("direct.failed", 1)
		return
	}
	sb := t.local()
	root := sb.record("direct.agg", 0, t0, t2)
	sb.record("store.open_reader", root, t0, t1)
	sb.record("agg.eval", root, t1, t2)
	sb.record("controller.agg", 0, t0.Add(-ctl), t0)
	sb.counts["agg.n"]++
	sb.counts["agg.records"] += float64(st.Records)
	sb.counts["agg.eval_ns"] += float64(t2.Sub(t1))
	sb.counts["agg.partial_bytes"] += float64(len(part.MarshalBinary()))
	t.merge(sb)
}

// directStats repeats stats as a snapshot of every machine's registry,
// the work each daemon's stats handler does.
func (t *tracer) directStats(b *bench, ctl time.Duration) {
	if t == nil {
		return
	}
	sb := t.local()
	t0 := time.Now()
	var blue time.Duration
	for _, m := range b.sys.Cluster.Machines() {
		s0 := time.Now()
		s := m.Obs().Snapshot()
		s.Machine = m.Name()
		_ = s.MarshalBinary()
		if m == b.blue {
			blue = time.Since(s0)
			sb.record("obs.snapshot", 0, s0, s0.Add(blue))
		}
	}
	all := time.Since(t0)
	sb.record("controller.stats", 0, t0.Add(-ctl), t0)
	sb.durs["controller.stats_overhead"] = append(sb.durs["controller.stats_overhead"], float64(ctl-all))
	t.merge(sb)
}

// noteGetlog records one successful getlog.
func (t *tracer) noteGetlog(d time.Duration, bytes int) {
	if t == nil {
		return
	}
	t.count("getlog.ns", float64(d))
	t.count("getlog.bytes", float64(bytes))
}

// finish runs the unmetered baseline pair and reads the counters and
// store layout the per-layer metrics need, before the system stops.
func (t *tracer) finish(b *bench) {
	if t == nil {
		return
	}
	if _, err := b.runJob(5000, 1, false); err != nil {
		b.acct.check("unmetered baseline job", err)
	}
	for _, m := range b.sys.Cluster.Machines() {
		reg := m.Obs()
		t.meterEvents += float64(reg.Counter("meter.events").Load())
		t.meterFlushes += float64(reg.Counter("meter.flushes").Load())
		t.meterBytes += float64(reg.Counter("meter.flush_bytes").Load())
	}
	rd, err := store.OpenReader(b.storeBackend())
	if err != nil {
		b.acct.check("store.OpenReader at the end", err)
		return
	}
	for _, shard := range rd.Shards() {
		for _, rs := range shard {
			t.segments++
			t.diskBytes += float64(rs.DiskBytes())
		}
	}
	t.records = float64(b.appends.Load())
}

// replay runs the captured meter stream through the filter engine
// without and with a live tap, and through a filter.Pipeline with the
// standard filter's sinks, and returns ns per event of each.
func (t *tracer) replay() (plain, tapped, pipeline float64) {
	desc := []byte(filter.StandardDescriptions)
	run := func(withTap bool) float64 {
		eng, err := filter.NewEngine(desc, nil)
		if err != nil {
			return math.NaN()
		}
		var coll *live.Collector
		if withTap {
			coll = live.NewCollector(live.Config{Obs: obs.NewRegistry()})
			eng.SetTap(coll.NewTap())
		}
		start := time.Now()
		var batch filter.Batch
		for _, chunks := range t.streams {
			var rest []byte
			for _, c := range chunks {
				buf := c
				if len(rest) > 0 {
					buf = append(append([]byte(nil), rest...), c...)
				}
				if rest, err = eng.ProcessBatch(buf, &batch); err != nil {
					return math.NaN() // the captured stream is corrupt
				}
				eng.TapFlush()
				batch.Reset()
			}
		}
		if coll != nil {
			coll.Close()
		}
		return float64(time.Since(start)) / float64(eng.Kept)
	}
	runPipeline := func() float64 {
		eng, err := filter.NewEngine(desc, nil)
		if err != nil {
			return math.NaN()
		}
		st, err := store.Open(store.NewMemBackend(), store.Config{Compress: store.CompressBlocks, ArchiveAfter: 30_000})
		if err != nil {
			return math.NaN()
		}
		pl := filter.NewPipeline(eng, filter.PipelineConfig{Obs: obs.NewRegistry(),
			Taps: live.NewCollector(live.Config{Obs: obs.NewRegistry()})},
			filter.Sinks{Store: st, Log: func([]byte) error { return nil }}, nil)
		start := time.Now()
		srcs := make([]*filter.Source, len(t.streams))
		for i := range srcs {
			srcs[i] = pl.NewSource()
		}
		for i := 0; ; i++ {
			fed := false
			for s, chunks := range t.streams {
				if i < len(chunks) {
					srcs[s].Feed(append([]byte(nil), chunks[i]...))
					fed = true
				}
			}
			if !fed {
				break
			}
		}
		pl.Close()
		return float64(time.Since(start)) / float64(pl.Stats().Kept)
	}
	var p, tp, pp []float64
	for i := 0; i < 3; i++ {
		p = append(p, run(false))
		tp = append(tp, run(true))
		pp = append(pp, runPipeline())
	}
	return median(p), median(tp), median(pp)
}

// layers computes the per-layer metrics of a traced pass. untraced
// and traced are the end-to-end metrics of the two passes.
func (t *tracer) layers(untraced, traced map[string]float64, p *phase) map[string]float64 {
	d := func(name string, q float64) float64 { return quantile(t.durs[name], q) }
	sum := func(name string) float64 {
		s := 0.0
		for _, v := range t.durs[name] {
			s += v
		}
		return s
	}
	c := t.counts
	events := c["filter.events"]
	plain, tapped, pipeline := t.replay()
	out := map[string]float64{
		"kernel.send_ns_p50":               d("kernel.send", 0.5),
		"kernel.unmetered_send_ns_p50":     d("kernel.send.unmetered", 0.5),
		"kernel.app_rtt_us_p99":            quantile(p.rtts, 0.99),
		"meter.events_per_flush":           ratio(t.meterEvents, t.meterFlushes),
		"meter.bytes_per_event":            ratio(t.meterBytes, t.meterEvents),
		"netsim.meter_recv_ns_p50":         d("netsim.recv", 0.5),
		"netsim.meter_bytes_per_recv":      ratio(c["netsim.recv_bytes"], c["netsim.recvs"]),
		"netsim.filter_idle_frac":          ratio(c["netsim.recv_ns"], c["filter.conn_ns"]),
		"filter.process_ns_per_event":      ratio(sum("filter.process"), events),
		"filter.pipeline_ns_per_event":     pipeline,
		"filter.log_append_ns_per_event":   ratio(sum("filter.log_append"), events),
		"filter.log_bytes_per_event":       ratio(c["filter.log_bytes"], events),
		"live.tap_ns_per_event":            tapped - plain,
		"store.append_ns_per_event":        ratio(sum("store.append"), events),
		"store.disk_bytes_per_event":       ratio(t.diskBytes, t.records),
		"store.records_per_segment":        ratio(t.records, t.segments),
		"store.open_reader_ms":             d("store.open_reader", 0.5) / 1e6,
		"query.run_ms_p50":                 d("query.run", 0.5) / 1e6,
		"query.scanned_per_matched":        ratio(c["query.records"], c["query.matched"]),
		"query.segments_pruned_frac":       ratio(c["query.pruned"], c["query.segments"]),
		"query.blocks_pruned_frac":         frac(c["query.blocks_pruned"], c["query.blocks"]+c["query.blocks_pruned"]),
		"query.allocs_per_query":           ratio(c["query.allocs"], c["query.n"]),
		"agg.eval_ms_p50":                  d("agg.eval", 0.5) / 1e6,
		"agg.ns_per_record":                ratio(c["agg.eval_ns"], c["agg.records"]),
		"agg.partial_bytes":                ratio(c["agg.partial_bytes"], c["agg.n"]),
		"daemon.query_overhead_ms_p50":     d("daemon.query_overhead", 0.5) / 1e6,
		"daemon.reply_bytes_per_query":     ratio(c["daemon.reply_bytes"], c["query.n"]),
		"daemon.getlog_ns_per_byte":        ratio(c["getlog.ns"], c["getlog.bytes"]),
		"obs.snapshot_us_p50":              d("obs.snapshot", 0.5) / 1e3,
		"controller.stats_overhead_ms_p50": d("controller.stats_overhead", 0.5) / 1e6,
		"runtime.allocs_per_event":         ratio(float64(p.ingest.allocs), float64(p.ingest.events)),
		"runtime.gc_cpu_frac":              ratio(p.ingest.cpuGC, p.ingest.cpuTotal),
		"tracing.ingest_overhead_frac":     1 - traced["ingest_events_per_s"]/untraced["ingest_events_per_s"],
		"tracing.query_overhead_frac":      traced["query_ms_p50"]/untraced["query_ms_p50"] - 1,
	}
	// The ingest path's per-event layer costs: metering in the kernel
	// (a metered send's extra cost over an unmetered one), then the
	// filter's extract/select/format, store append and log append.
	layerSum := out["kernel.send_ns_p50"] - out["kernel.unmetered_send_ns_p50"] +
		out["filter.process_ns_per_event"] + out["store.append_ns_per_event"] + out["filter.log_append_ns_per_event"]
	out["layers.sum_ns_per_event"] = layerSum
	out["layers.coverage"] = layerSum / (1e9 / traced["ingest_events_per_s"])
	return out
}

// frac is a/b, 0 when b is zero (nothing to prune is nothing pruned).
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

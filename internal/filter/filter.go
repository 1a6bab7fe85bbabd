package filter

import (
	"fmt"
	"strconv"
	"sync"

	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/store"
)

// LogPath returns the log file a filter of the given name writes, in
// the /usr/tmp directory the paper specifies (section 3.4).
func LogPath(name string) string { return "/usr/tmp/" + name + ".log" }

// StorePath returns the event-store directory a filter of the given
// name writes beside its flat log. The flat log remains the
// compatibility surface (getlog, ReadTrace); the store is the indexed
// form queries run against.
func StorePath(name string) string { return "/usr/tmp/" + name + ".store" }

// StatsPath returns the JSON metrics snapshot a filter of the given
// name exports beside its log at shutdown — the forensic record a
// chaos soak inspects after the fact.
func StatsPath(name string) string { return "/usr/tmp/" + name + ".stats.json" }

// DefaultDescriptionsPath and DefaultTemplatesPath are the standard
// file names the controller falls back to ("standard filenames
// ('templates' and 'descriptions') are used", section 4.3).
const (
	DefaultDescriptionsPath = "/etc/meter/descriptions"
	DefaultTemplatesPath    = "/etc/meter/templates"
)

// Engine is the reusable selection/reduction core of a filter: framing
// of the meter byte stream, record extraction via descriptions, and
// rule evaluation. The standard filter drives it from a socket loop;
// custom filters (section 3.4 allows them, "given a few basic
// constraints") can drive it from anything that yields meter bytes.
//
// At construction the descriptions and rules are compiled into an
// index-based program (compile.go); the steady-state batch path
// extracts, selects, and formats records with zero heap allocations
// per record.
type Engine struct {
	desc  *Descriptions
	rules Rules
	prog  *Program

	// lineBuf is the reused formatting buffer of the compatibility
	// (per-line string) path.
	lineBuf []byte

	// tap, when non-nil, observes every kept record (tap.go). Not
	// carried by Clone — pipeline workers each get their own.
	tap RecordTap

	// Stats counts the engine's record traffic.
	Received  int
	Kept      int
	Discarded int
}

// NewEngine builds an engine from descriptions and templates file
// contents. Empty templates select everything.
func NewEngine(descData, tmplData []byte) (*Engine, error) {
	d, err := ParseDescriptions(descData)
	if err != nil {
		return nil, err
	}
	r, err := ParseRules(tmplData)
	if err != nil {
		return nil, err
	}
	return &Engine{desc: d, rules: r, prog: CompileProgram(d, r)}, nil
}

// Clone returns an engine sharing this engine's descriptions, rules,
// and compiled program — all immutable after construction — but with
// independent statistics and formatting buffers. The parallel ingest
// pipeline gives each worker a clone so selection runs without any
// cross-worker state.
func (e *Engine) Clone() *Engine {
	return &Engine{desc: e.desc, rules: e.rules, prog: e.prog}
}

// recordPool recycles extraction records across engines; one filter
// holds a record only for the duration of a Process* call, so a
// machine full of filters shares a handful of records instead of
// allocating one per message.
var recordPool = sync.Pool{New: func() any { return new(Record) }}

// GetRecord takes a reusable record from the pool; custom filters
// driving Descriptions.ExtractInto themselves should pair it with
// PutRecord.
func GetRecord() *Record { return recordPool.Get().(*Record) }

// PutRecord returns a record to the pool. The caller must not retain
// the record or its fields afterwards.
func PutRecord(r *Record) { recordPool.Put(r) }

// Batch accumulates one flush's worth of surviving records: the
// concatenated '\n'-terminated log lines (the flat-log image, written
// with a single file append) and the per-record store metadata. A
// Batch is reused across flushes via Reset, so the steady state
// allocates nothing.
type Batch struct {
	// Lines is the flat-log image: each record's formatted line
	// followed by '\n'.
	Lines []byte
	metas []store.Meta
	ends  []int // end offset of each record's line in Lines, excluding '\n'
	recs  []store.BatchRec
}

// Reset empties the batch, retaining capacity.
func (b *Batch) Reset() {
	b.Lines = b.Lines[:0]
	b.metas = b.metas[:0]
	b.ends = b.ends[:0]
}

// Len returns the number of records in the batch.
func (b *Batch) Len() int { return len(b.ends) }

// Line returns the i'th record's formatted line (no trailing '\n').
// The slice aliases the batch and is valid until the next Reset.
func (b *Batch) Line(i int) []byte {
	start := 0
	if i > 0 {
		start = b.ends[i-1] + 1
	}
	return b.Lines[start:b.ends[i]]
}

// StoreRecs materializes the batch as store append records. The
// returned slice and its lines alias the batch; hand it straight to
// Store.AppendBatch before the next Reset.
func (b *Batch) StoreRecs() []store.BatchRec {
	b.recs = b.recs[:0]
	start := 0
	for i, end := range b.ends {
		b.recs = append(b.recs, store.BatchRec{Meta: b.metas[i], Line: b.Lines[start:end]})
		start = end + 1
	}
	return b.recs
}

// frameSize validates and returns the size field of the frame at the
// front of buf; n == 0 means incomplete.
func frameSize(buf []byte) (int, error) {
	size, err := meter.PeekSize(buf)
	if err != nil {
		return 0, fmt.Errorf("filter: corrupt size field: %w", err)
	}
	return size, nil
}

// ProcessBatch consumes raw meter-stream bytes and appends every
// surviving record's formatted line and store metadata to the batch,
// returning the unconsumed tail. This is the filter's hot path: with
// the batch's buffers at capacity it performs zero heap allocations
// per record.
func (e *Engine) ProcessBatch(buf []byte, b *Batch) (rest []byte, err error) {
	rec := GetRecord()
	defer PutRecord(rec)
	for {
		size, err := frameSize(buf)
		if err != nil || size == 0 {
			return buf, err
		}
		pl, err := e.prog.ExtractInto(rec, buf[:size])
		if err != nil {
			return buf, err
		}
		buf = buf[size:]
		e.Received++
		if pl.wide {
			// Wide event type (>64 body fields): discard sets exceed the
			// mask; selection still runs compiled, formatting takes the
			// map-based path.
			keep, rule := pl.selectRec(rec)
			if !keep {
				e.Discarded++
				continue
			}
			e.Kept++
			if e.tap != nil {
				e.tap.TapRecord(&pl.tapInfo, rec)
			}
			var discards map[string]bool
			if rule >= 0 {
				discards = pl.rules[rule].discards
			}
			b.Lines = append(b.Lines, rec.Format(discards)...)
			b.ends = append(b.ends, len(b.Lines))
			b.Lines = append(b.Lines, '\n')
			b.metas = append(b.metas, store.Meta{
				Machine: rec.Machine, Time: rec.CPUTime,
				Type: uint32(rec.Type), PID: pl.pid(rec),
			})
			continue
		}
		keep, mask := e.selectCompiled(pl, rec)
		if !keep {
			e.Discarded++
			continue
		}
		e.Kept++
		if e.tap != nil {
			e.tap.TapRecord(&pl.tapInfo, rec)
		}
		b.Lines = rec.AppendFormat(b.Lines, mask)
		b.ends = append(b.ends, len(b.Lines))
		b.Lines = append(b.Lines, '\n')
		b.metas = append(b.metas, store.Meta{
			Machine: rec.Machine, Time: rec.CPUTime,
			Type: uint32(rec.Type), PID: pl.pid(rec),
		})
	}
}

// selectCompiled runs the compiled selection for one record and
// returns the matched rule's discard mask. The rare wide event type
// (>64 body fields) formats through the interpreter's map path
// instead; the mask is then unused because AppendFormat ignores bits
// beyond 64 — callers detect wide plans via pl.wide.
func (e *Engine) selectCompiled(pl *eventPlan, rec *Record) (keep bool, mask uint64) {
	keep, rule := pl.selectRec(rec)
	if !keep || rule < 0 {
		return keep, 0
	}
	return true, pl.rules[rule].mask
}

// Process consumes raw meter-stream bytes carried over from previous
// calls plus the new data, and returns the formatted log lines of the
// records that survive selection, together with the unconsumed tail.
// The only allocations are the returned strings themselves; the
// extraction and formatting underneath run through the pooled
// zero-allocation machinery.
func (e *Engine) Process(buf []byte) (lines []string, rest []byte, err error) {
	rest, err = e.ProcessEach(buf, func(_ *Record, line []byte) {
		lines = append(lines, string(line))
	})
	return lines, rest, err
}

// ProcessEach is Process with a per-record callback: each surviving
// record and its formatted log line are handed to emit as they are
// extracted, so a caller can fan one record out to several sinks
// without a second framing pass. The record is pooled and the line
// aliases a reused buffer: emit must not retain either past the
// callback (copy the line if it must outlive the call). With buffers
// warm, ProcessEach performs zero heap allocations per record; callers
// that want the whole flush as one image should use ProcessBatch.
func (e *Engine) ProcessEach(buf []byte, emit func(rec *Record, line []byte)) (rest []byte, err error) {
	rec := GetRecord()
	defer PutRecord(rec)
	for {
		size, err := frameSize(buf)
		if err != nil || size == 0 {
			return buf, err
		}
		pl, err := e.prog.ExtractInto(rec, buf[:size])
		if err != nil {
			return buf, err
		}
		buf = buf[size:]
		e.Received++
		if pl.wide {
			// Wide event type: discard sets exceed the mask; selection
			// still runs compiled, formatting takes the map-based path.
			keep, rule := pl.selectRec(rec)
			if !keep {
				e.Discarded++
				continue
			}
			var discards map[string]bool
			if rule >= 0 {
				discards = pl.rules[rule].discards
			}
			e.lineBuf = append(e.lineBuf[:0], rec.Format(discards)...)
		} else {
			keep, mask := e.selectCompiled(pl, rec)
			if !keep {
				e.Discarded++
				continue
			}
			e.lineBuf = rec.AppendFormat(e.lineBuf[:0], mask)
		}
		e.Kept++
		if e.tap != nil {
			e.tap.TapRecord(&pl.tapInfo, rec)
		}
		emit(rec, e.lineBuf)
	}
}

// Main is the standard filter program. Its arguments are
//
//	args[0] filter name (determines the log file)
//	args[1] listen port
//	args[2] descriptions file path (optional; default standard file)
//	args[3] templates file path (optional; default standard file)
//	args[4] ingest workers (optional; default GOMAXPROCS)
//
// It binds a stream socket, accepts one meter connection per metered
// process creation, applies selection, and appends surviving records
// to its log file. Each connection is drained by its own goroutine
// into a bounded-parallelism Pipeline: selection and formatting run on
// the pipeline's workers, store appends land concurrently on the
// sharded store, and the flat log is written by one serialized writer
// that preserves per-connection record order. It runs until killed;
// "The events detected and logged by the filter process are not seen
// by the user as they occur" (section 3.4) — the user retrieves the
// log afterwards with getlog.
func Main(p *kernel.Process) int {
	args := p.Args()
	if len(args) < 2 {
		p.Printf("filter: usage: name port [descriptions [templates [workers]]]\n")
		return 1
	}
	name := args[0]
	port64, err := strconv.ParseUint(args[1], 10, 16)
	if err != nil {
		p.Printf("filter: bad port %q\n", args[1])
		return 1
	}
	descPath, tmplPath := DefaultDescriptionsPath, DefaultTemplatesPath
	if len(args) > 2 && args[2] != "" {
		descPath = args[2]
	}
	if len(args) > 3 && args[3] != "" {
		tmplPath = args[3]
	}
	workers := 0 // 0: PipelineConfig default (GOMAXPROCS)
	if len(args) > 4 && args[4] != "" {
		w, err := strconv.Atoi(args[4])
		if err != nil || w < 0 {
			p.Printf("filter: bad worker count %q\n", args[4])
			return 1
		}
		workers = w
	}

	descData, err := p.ReadFile(descPath)
	if err != nil {
		p.Printf("filter: %v\n", err)
		return 1
	}
	// A missing templates file means no selection: keep everything.
	tmplData, err := p.ReadFile(tmplPath)
	if err != nil {
		tmplData = nil
	}
	eng, err := NewEngine(descData, tmplData)
	if err != nil {
		p.Printf("filter: %v\n", err)
		return 1
	}

	// The event store rides beside the flat log: same records, framed
	// and indexed so queries can prune segments instead of shipping the
	// whole log (internal/store). Opening recovers any segments a
	// previous incarnation left unsealed. Every subsystem of the filter
	// hangs its metrics on the machine's registry, so one stats request
	// to the local daemon sees the whole node.
	reg := p.Machine().Obs()
	// Sealed segments are block-compressed, and segments a cpuTime
	// half-minute colder than the newest record roll into the archival
	// tier; records are never expired here (RetainFor stays 0 — the
	// flat log and the store must answer identically).
	st, err := store.Open(store.NewFsysBackend(p.Machine().FS(), p.UID(), StorePath(name)), store.Config{
		Obs:          reg,
		Compress:     store.CompressBlocks,
		ArchiveAfter: 30_000,
	})
	if err != nil {
		p.Printf("filter: store: %v\n", err)
		return 1
	}

	lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		p.Printf("filter: %v\n", err)
		return 1
	}
	if err := p.BindPort(lfd, uint16(port64)); err != nil {
		p.Printf("filter: %v\n", err)
		return 1
	}
	if err := p.Listen(lfd, 32); err != nil {
		p.Printf("filter: %v\n", err)
		return 1
	}

	// Live streaming analysis taps the pipeline when a factory is
	// installed (core wires internal/analysis/live here); the section
	// providers it registers on reg ride every stats snapshot.
	var taps TapSource
	if fn := loadTapFactory(); fn != nil {
		taps = fn(reg, name)
	}

	logPath := LogPath(name)
	pipe := NewPipeline(eng, PipelineConfig{Workers: workers, Obs: reg, Taps: taps}, Sinks{
		Store: st,
		Log:   func(lines []byte) error { return p.AppendFile(logPath, lines) },
	}, p.Go)
	// On kill the Accept below unwinds; draining the pipeline before
	// the process finishes keeps shutdown orderly (no worker left
	// blocked on a queue the cluster's shutdown would wait on). The
	// snapshot export runs after the drain so its counters are final,
	// and writes through the machine's file system directly — process
	// syscalls are unusable during a kill unwind, and the forensic
	// record matters most when the filter died by fault injection.
	// Between the two, closing the store waits out the background
	// archiver, so nothing writes the store once the filter is gone.
	defer p.Machine().ExportStats(StatsPath(name), p.UID())
	defer st.Close()
	defer pipe.Close()

	for {
		nfd, _, err := p.Accept(lfd)
		if err != nil {
			return 0 // killed: normal filter shutdown
		}
		fd := nfd
		src := pipe.NewSource()
		p.Go(func() {
			defer func() { _ = p.Close(fd) }()
			for {
				// A large Recv drains whole meter-buffer flushes in
				// one call, handing the engine maximal contiguous
				// frame runs.
				data, err := p.Recv(fd, 65536)
				if err != nil {
					// EOF or error: the metered process (and every
					// holder of its meter socket) is gone.
					return
				}
				if !src.Feed(data) {
					return
				}
			}
		})
	}
}

// ProgramName is the registry name of the standard filter program; the
// default filter executable file refers to it.
const ProgramName = "dpm-filter"

// Install registers the standard filter program with a cluster and
// writes the standard descriptions and (empty) templates files plus
// the default filter executable onto a machine. uid owns the files.
func Install(c *kernel.Cluster, m *kernel.Machine, uid int) error {
	c.RegisterProgram(ProgramName, Main)
	if err := m.FS().Create(DefaultDescriptionsPath, uid, fsys.DefaultMode, []byte(StandardDescriptions)); err != nil {
		return err
	}
	if !m.FS().Exists(DefaultTemplatesPath) {
		if err := m.FS().Create(DefaultTemplatesPath, uid, fsys.DefaultMode, nil); err != nil {
			return err
		}
	}
	return m.FS().CreateExecutable("/bin/filter", uid, ProgramName)
}

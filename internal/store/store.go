package store

import (
	"compress/flate"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dpm/internal/obs"
)

// Config tunes a store. The zero value selects the defaults.
type Config struct {
	// Shards is the number of concurrent shard writers; records route
	// to shard machine%Shards, so one machine's records stay ordered
	// within one shard.
	Shards int
	// SegmentCap is the frame-data size that triggers rotation: when an
	// active segment reaches it, the segment is sealed (footer written)
	// and the next append starts a fresh one.
	SegmentCap int
	// CompactMin is the number of adjacent small sealed segments (under
	// half of SegmentCap) that triggers compaction into one.
	CompactMin int
	// Compress selects the segment encoding: CompressOff writes the v1
	// CRC-framed format, CompressBlocks the v2 block-compressed format
	// (see compress.go). Reads understand both regardless.
	Compress CompressMode
	// CompressLevel is the flate level for CompressBlocks; 0 selects
	// flate.NoCompression (the ingest path cannot afford more, and the
	// archival tier recompresses at DefaultCompression anyway).
	CompressLevel int
	// BlockTarget is the v1-equivalent byte size of one compressed
	// block — the granularity of zone-map pruning. 0 selects
	// DefaultBlockTarget.
	BlockTarget int
	// ArchiveAfter, when non-zero, is the cpuTime age (ms behind the
	// newest record the store has seen) past which cold sealed segments
	// roll into the archival tier: re-encoded at DefaultCompression, up
	// to archiveRunMax segments merged per archive file. Archival
	// preserves every record; only its encoding changes. Rotation only
	// signals the store's background archiver, so the re-encode (~2.5
	// µs a record) is not paid on the append path; Flush and Maintain
	// archive inline.
	ArchiveAfter uint64
	// RetainFor, when non-zero, is the retention horizon (cpuTime ms):
	// a sealed segment whose MaxTime has fallen more than RetainFor
	// behind the newest record is expired — removed, records and all —
	// on the next maintenance pass.
	RetainFor uint64
	// Obs is the registry the store's counters and latency histograms
	// live in (store.*); nil gets a private registry.
	Obs *obs.Registry
}

// Default configuration values.
const (
	DefaultShards     = 4
	DefaultSegmentCap = 32 << 10
	DefaultCompactMin = 4

	// archiveRunMax caps how many cold segments one archival pass merges
	// into a single tier-1 file.
	archiveRunMax = 8
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.SegmentCap <= 0 {
		c.SegmentCap = DefaultSegmentCap
	}
	if c.CompactMin <= 0 {
		c.CompactMin = DefaultCompactMin
	}
	if c.BlockTarget <= 0 {
		c.BlockTarget = DefaultBlockTarget
	}
	return c
}

// SegmentInfo describes one segment file of a store.
type SegmentInfo struct {
	Name  string
	Shard int
	// Start and End are the segment sequence range the file covers;
	// rotation produces single-sequence segments and compaction or
	// archival widens the range.
	Start, End int
	// Bytes is the v1-equivalent frame-data size — what the records
	// would occupy CRC-framed, whatever the on-disk encoding — so
	// rotation and compaction thresholds mean the same thing in both
	// formats.
	Bytes int
	// DiskBytes is the sealed file's on-disk size (0 while active);
	// Bytes/DiskBytes is the segment's compression ratio.
	DiskBytes int
	// Tier is 0 for the hot tier, 1 for the archival tier.
	Tier   int
	Index  Index
	Sealed bool
}

func (in *SegmentInfo) span() (start, end, tier int) { return in.Start, in.End, in.Tier }

// dropCovered sorts one shard's segment files into rotation order and
// splits off those whose sequence range another file covers: a wider
// file of the shard, or a tier-1 archive of the same range.
// Compaction and archival create their merged file before removing
// the inputs, and a merge never spans a sequence gap, so a covered
// file is an input whose records the merged file already holds. One
// sweep in (Start, widest first, archive first) order finds them all:
// a file is covered iff it ends at or before the furthest End seen.
func dropCovered[T any](segs []T, span func(T) (start, end, tier int)) (kept, covered []T) {
	sort.Slice(segs, func(a, b int) bool {
		sa, ea, ta := span(segs[a])
		sb, eb, tb := span(segs[b])
		if sa != sb {
			return sa < sb
		}
		if ea != eb {
			return ea > eb
		}
		return ta > tb
	})
	kept = segs[:0]
	maxEnd := 0
	for _, seg := range segs {
		if _, end, _ := span(seg); end > maxEnd {
			maxEnd = end
			kept = append(kept, seg)
		} else {
			covered = append(covered, seg)
		}
	}
	return kept, covered
}

func segName(shard, start, end, tier int) string {
	prefix := "s"
	if tier > 0 {
		prefix = "a"
	}
	return fmt.Sprintf("%s%d-%06d-%06d.seg", prefix, shard, start, end)
}

func parseSegName(name string) (shard, start, end, tier int, ok bool) {
	if !strings.HasSuffix(name, ".seg") {
		return 0, 0, 0, 0, false
	}
	format := "s%d-%d-%d.seg"
	switch {
	case strings.HasPrefix(name, "s"):
	case strings.HasPrefix(name, "a"):
		tier, format = 1, "a%d-%d-%d.seg"
	default:
		return 0, 0, 0, 0, false
	}
	if n, err := fmt.Sscanf(name, format, &shard, &start, &end); err != nil || n != 3 {
		return 0, 0, 0, 0, false
	}
	if shard < 0 || start < 1 || end < start {
		return 0, 0, 0, 0, false
	}
	return shard, start, end, tier, true
}

// Stats counts a store's write-side traffic, in the style of the
// kernel meter's buffer statistics.
type Stats struct {
	Appends     int // records appended
	Rotations   int // segments sealed because they reached SegmentCap
	Compactions int // compaction runs performed
	Recovered   int // segments re-sealed during Open recovery
	Archived    int // segments rolled into the archival tier
	Expired     int // segments removed past the retention horizon
}

// Store is a sharded segment writer. All methods are safe for
// concurrent use; appends to different shards do not contend.
type Store struct {
	be  Backend
	cfg Config

	shards []*shard

	statsMu sync.Mutex
	stats   Stats

	// maxSeen is the newest cpuTime any append has carried — the "now"
	// that retention and archival ages are measured against.
	maxSeen atomic.Uint64

	// The background archiver: started on demand by a rotation that
	// leaves a cold run behind, gone once a pass finds none. archDirty
	// asks a running archiver for one more pass; archClosed (set by
	// Close) stops new starts. Lock order: sh.mu before archMu.
	archMu      sync.Mutex
	archRunning bool
	archDirty   bool
	archClosed  bool
	archWG      sync.WaitGroup

	// obs handles, resolved once in Open. The Stats struct above stays
	// the legacy view; these mirror it into the machine registry plus
	// the latencies the struct cannot carry.
	obsAppends     *obs.Counter
	obsRotations   *obs.Counter
	obsCompactions *obs.Counter
	obsRecovered   *obs.Counter
	obsAbandoned   *obs.Counter
	obsArchived    *obs.Counter
	obsArchiveRuns *obs.Counter
	obsArchiveErrs *obs.Counter
	obsExpiredSegs *obs.Counter
	obsExpiredRecs *obs.Counter
	obsBlocks      *obs.Counter
	obsRawBytes    *obs.Counter
	obsCompBytes   *obs.Counter
	appendNS       *obs.Histogram
	rotateNS       *obs.Histogram
	compactNS      *obs.Histogram
	archiveNS      *obs.Histogram
}

type shard struct {
	mu      sync.Mutex
	id      int
	nextSeq int
	active  *SegmentInfo // nil when no segment is being filled
	sealed  []*SegmentInfo
	// scratch is the shard's reused framing buffer; append paths build
	// frames here under mu so the steady state allocates nothing.
	// pending holds the metadata of the scratch frames, folded into the
	// active segment's index only once the backend write succeeds.
	scratch []byte
	pending []Meta
	// cw is the shard's v2 encoder (nil with CompressOff): records
	// stage through it instead of the scratch framing buffer.
	cw *compWriter
}

// Open opens (or creates) the store behind a backend. Existing sealed
// segments are adopted as they are; an unsealed or damaged segment —
// what a crashed writer leaves behind — is recovered by rewriting its
// valid record prefix as a sealed segment, so every record that
// survived the crash is indexed and queryable. The inputs of a
// compaction or archive that died before removing them are removed,
// not adopted (see dropCovered).
func Open(be Backend, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	names, err := be.List()
	if err != nil {
		return nil, err
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		be: be, cfg: cfg,
		obsAppends:     reg.Counter("store.appends"),
		obsRotations:   reg.Counter("store.rotations"),
		obsCompactions: reg.Counter("store.compactions"),
		obsRecovered:   reg.Counter("store.recovered"),
		obsAbandoned:   reg.Counter("store.abandoned"),
		obsArchived:    reg.Counter("store.archived_segments"),
		obsArchiveRuns: reg.Counter("store.archive_runs"),
		obsArchiveErrs: reg.Counter("store.archive_errors"),
		obsExpiredSegs: reg.Counter("store.expired_segments"),
		obsExpiredRecs: reg.Counter("store.expired_records"),
		obsBlocks:      reg.Counter("store.blocks"),
		obsRawBytes:    reg.Counter("store.raw_bytes"),
		obsCompBytes:   reg.Counter("store.compressed_bytes"),
		appendNS:       reg.Histogram("store.append_ns"),
		rotateNS:       reg.Histogram("store.rotate_ns"),
		compactNS:      reg.Histogram("store.compact_ns"),
		archiveNS:      reg.Histogram("store.archive_ns"),
	}
	byShard := make(map[int][]*SegmentInfo)
	maxShard := cfg.Shards - 1
	for _, name := range names {
		sh, start, end, tier, ok := parseSegName(name)
		if !ok {
			continue
		}
		if sh > maxShard {
			maxShard = sh
		}
		byShard[sh] = append(byShard[sh], &SegmentInfo{Name: name, Shard: sh, Start: start, End: end, Tier: tier})
	}
	for i := 0; i <= maxShard; i++ {
		sh := &shard{id: i, nextSeq: 1}
		if cfg.Compress == CompressBlocks {
			sh.cw = newCompWriter(cfg.CompressLevel, cfg.BlockTarget)
		}
		// A crash between writing a merged file and removing its inputs
		// leaves both: finish the job, so no record is adopted twice.
		infos, covered := dropCovered(byShard[i], (*SegmentInfo).span)
		for _, info := range covered {
			_ = be.Remove(info.Name)
		}
		for _, info := range infos {
			data, err := be.Read(info.Name)
			if err != nil {
				return nil, err
			}
			seg, perr := ParseSegment(data)
			if perr != nil || !seg.Sealed {
				data, err = s.rewriteSealed(info.Name, seg.Recs)
				if err != nil {
					return nil, err
				}
				seg.Index = indexOf(seg.Recs)
				s.stats.Recovered++
				s.obsRecovered.Inc()
			}
			info.Index = seg.Index
			info.Sealed = true
			info.Bytes = 0
			info.DiskBytes = len(data)
			for _, r := range seg.Recs {
				info.Bytes += FrameSize(len(r.Line))
			}
			if seg.Index.Count > 0 && seg.Index.MaxTime > s.maxSeen.Load() {
				s.maxSeen.Store(seg.Index.MaxTime)
			}
			sh.sealed = append(sh.sealed, info)
			if info.End >= sh.nextSeq {
				sh.nextSeq = info.End + 1
			}
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

func indexOf(recs []Rec) Index {
	var x Index
	for _, r := range recs {
		x.Add(r.Meta)
	}
	return x
}

// rewriteSealed replaces a segment file with a sealed re-encoding of
// the given records in the store's configured format, returning the
// bytes written.
func (s *Store) rewriteSealed(name string, recs []Rec) ([]byte, error) {
	data, err := encodeRecs(recs, s.cfg)
	if err != nil {
		return nil, err
	}
	return data, s.be.Create(name, data)
}

// encodeRecs encodes records as one sealed segment in the configured
// format.
func encodeRecs(recs []Rec, cfg Config) ([]byte, error) {
	if cfg.Compress == CompressBlocks {
		return encodeSegmentV2(recs, cfg.CompressLevel, cfg.BlockTarget)
	}
	var frames []byte
	for _, r := range recs {
		frames = AppendFrame(frames, r.Meta, r.Line)
	}
	return AppendFooter(frames, indexOf(recs), uint32(len(frames))), nil
}

// openLocked ensures the shard has an active segment. Caller holds
// sh.mu.
func (sh *shard) openLocked() {
	if sh.active == nil {
		seq := sh.nextSeq
		sh.nextSeq++
		sh.active = &SegmentInfo{Name: segName(sh.id, seq, seq, 0), Shard: sh.id, Start: seq, End: seq}
		if sh.cw != nil {
			sh.cw.openSegment()
		}
	}
}

// noteTime folds one flushed batch's newest cpuTime into the store's
// high-water mark.
func (s *Store) noteTime(t uint64) {
	for {
		cur := s.maxSeen.Load()
		if t <= cur || s.maxSeen.CompareAndSwap(cur, t) {
			return
		}
	}
}

// stagedLocked is the v1-equivalent size of the shard's staged-but-
// unflushed records. Caller holds sh.mu.
func (s *Store) stagedLocked(sh *shard) int {
	if sh.cw != nil {
		return sh.cw.stagedV1
	}
	return len(sh.scratch)
}

// flushLocked writes the shard's staged records to the active segment,
// folds the pending metadata into its index, and — when the segment
// has reached the cap — seals, compacts, and runs retention
// maintenance. Caller holds sh.mu.
func (s *Store) flushLocked(sh *shard, rotations *int) error {
	if sh.cw != nil {
		return s.flushCompressedLocked(sh, rotations)
	}
	return s.flushScratchLocked(sh, rotations)
}

// flushScratchLocked is flushLocked's v1 half. On a backend error the
// scratch frames are dropped unindexed, so the in-memory index never
// gets ahead of the file. Caller holds sh.mu.
func (s *Store) flushScratchLocked(sh *shard, rotations *int) error {
	if len(sh.scratch) == 0 {
		return nil
	}
	err := s.be.Append(sh.active.Name, sh.scratch)
	n := len(sh.scratch)
	sh.scratch = sh.scratch[:0]
	if err != nil {
		sh.pending = sh.pending[:0]
		return err
	}
	sh.active.Bytes += n
	s.foldPendingLocked(sh, nil)
	return s.rotateLocked(sh, rotations)
}

// flushCompressedLocked is flushLocked's v2 half: push the staged
// payload through the shard's DEFLATE stream (ending on a sync marker,
// so what lands in the file is a decodable prefix) and append the
// compressed bytes. A backend error abandons the whole active segment
// — the encoder's dictionary and front-coding state can no longer be
// reconciled with the file, whose durable prefix the next Open
// salvages. Caller holds sh.mu.
func (s *Store) flushCompressedLocked(sh *shard, rotations *int) error {
	w := sh.cw
	if w.stagedN == 0 {
		return nil
	}
	stagedV1 := w.stagedV1
	if err := w.flushStaged(true); err != nil {
		s.abandonLocked(sh)
		return err
	}
	err := s.be.Append(sh.active.Name, w.sink.buf)
	w.sink.buf = w.sink.buf[:0]
	if err != nil {
		s.abandonLocked(sh)
		return err
	}
	sh.active.Bytes += stagedV1
	s.foldPendingLocked(sh, w)
	return s.rotateLocked(sh, rotations)
}

// rotateLocked seals the active segment once it has reached the cap,
// then compacts and runs retention maintenance. Caller holds sh.mu.
func (s *Store) rotateLocked(sh *shard, rotations *int) error {
	if sh.active.Bytes < s.cfg.SegmentCap {
		return nil
	}
	if err := s.sealLocked(sh); err != nil {
		return err
	}
	*rotations++
	if err := s.compactLocked(sh); err != nil {
		return err
	}
	s.maintainLocked(sh)
	return nil
}

// foldPendingLocked folds the pending metadata into the active
// segment's index (and the current block's zone map, when compressing)
// after a successful backend write. Caller holds sh.mu.
func (s *Store) foldPendingLocked(sh *shard, w *compWriter) {
	var tmax uint64
	for _, m := range sh.pending {
		sh.active.Index.Add(m)
		if w != nil {
			w.foldMeta(m)
		}
		if uint64(m.Time) > tmax {
			tmax = uint64(m.Time)
		}
	}
	sh.pending = sh.pending[:0]
	s.noteTime(tmax)
}

// abandonLocked drops the active segment after a failed compressed
// write: its in-memory encoder state is unrecoverable, so the segment
// is orphaned unindexed and its durable prefix left for the next
// Open's salvage. Caller holds sh.mu.
func (s *Store) abandonLocked(sh *shard) {
	sh.pending = sh.pending[:0]
	if sh.cw != nil {
		sh.cw.sink.buf = sh.cw.sink.buf[:0]
	}
	sh.active = nil
	s.obsAbandoned.Inc()
}

// Append routes one record to its shard and appends it; when the
// shard's active segment reaches SegmentCap it is sealed and, if
// enough small sealed segments have piled up, compacted.
func (s *Store) Append(m Meta, line string) error {
	// Counted but not span-timed: a per-record clock pair would cost
	// ~25% of this path. store.append_ns is observed per batch in
	// AppendBatch, the path the filter actually flushes through.
	sh := s.shards[int(m.Machine)%len(s.shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.openLocked()
	if sh.cw != nil {
		sh.cw.lineBuf = append(sh.cw.lineBuf[:0], line...)
		if err := sh.cw.stage(m, sh.cw.lineBuf); err != nil {
			s.abandonLocked(sh)
			return err
		}
	} else {
		sh.scratch = AppendFrame(sh.scratch[:0], m, line)
	}
	sh.pending = append(sh.pending[:0], m)
	var rotations int
	if err := s.flushLocked(sh, &rotations); err != nil {
		return err
	}
	s.statsMu.Lock()
	s.stats.Appends++
	s.stats.Rotations += rotations
	s.statsMu.Unlock()
	s.obsAppends.Inc()
	s.obsRotations.Add(int64(rotations))
	return nil
}

// BatchRec is one record of an AppendBatch call. Line aliases
// caller-owned memory and is fully consumed before AppendBatch
// returns, so callers can reuse the backing buffer.
type BatchRec struct {
	Meta Meta
	Line []byte
}

// AppendBatch appends a batch of records, visiting each shard once:
// all of a shard's records are framed into its reused scratch buffer
// and written under one lock acquisition, with a backend write per
// segment-cap boundary instead of per record. The filter's dual-sink
// flush calls this once per Recv. Equivalent to appending the records
// one at a time except that rotation is checked at batch granularity
// within a shard, so a segment may overshoot SegmentCap by at most one
// batch.
func (s *Store) AppendBatch(recs []BatchRec) error {
	if len(recs) == 0 {
		return nil
	}
	span := obs.StartSpan(s.appendNS)
	nshards := len(s.shards)
	// One pass over the batch builds a shard-presence bitmask, so shards
	// with no records in this batch are skipped without taking their
	// locks — with concurrent ingest workers each flushing small batches,
	// most shards are usually absent from any given batch.
	var present uint64
	if nshards <= 64 {
		for i := range recs {
			present |= 1 << (int(recs[i].Meta.Machine) % nshards)
		}
	} else {
		present = ^uint64(0)
	}
	appends, rotations := 0, 0
	for id, sh := range s.shards {
		if nshards <= 64 && present&(1<<id) == 0 {
			continue
		}
		sh.mu.Lock()
		sh.scratch, sh.pending = sh.scratch[:0], sh.pending[:0]
		for i := range recs {
			if int(recs[i].Meta.Machine)%nshards != id {
				continue
			}
			sh.openLocked()
			if sh.cw != nil {
				if err := sh.cw.stage(recs[i].Meta, recs[i].Line); err != nil {
					s.abandonLocked(sh)
					sh.mu.Unlock()
					return err
				}
			} else {
				sh.scratch = AppendFrameBytes(sh.scratch, recs[i].Meta, recs[i].Line)
			}
			sh.pending = append(sh.pending, recs[i].Meta)
			appends++
			if sh.active.Bytes+s.stagedLocked(sh) >= s.cfg.SegmentCap {
				if err := s.flushLocked(sh, &rotations); err != nil {
					sh.mu.Unlock()
					return err
				}
			}
		}
		err := s.flushLocked(sh, &rotations)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	s.statsMu.Lock()
	s.stats.Appends += appends
	s.stats.Rotations += rotations
	s.statsMu.Unlock()
	s.obsAppends.Add(int64(appends))
	s.obsRotations.Add(int64(rotations))
	span.End()
	return nil
}

// sealLocked writes the active segment's footer and retires it to the
// sealed list. Caller holds sh.mu.
func (s *Store) sealLocked(sh *shard) error {
	a := sh.active
	if a == nil || a.Index.Count == 0 {
		return nil
	}
	span := obs.StartSpan(s.rotateNS)
	if sh.cw != nil {
		tail, disk, err := sh.cw.seal(a.Index, a.Bytes)
		if err != nil {
			s.abandonLocked(sh)
			return err
		}
		if err := s.be.Append(a.Name, tail); err != nil {
			s.abandonLocked(sh)
			return err
		}
		a.DiskBytes = disk
		s.obsBlocks.Add(int64(len(sh.cw.blocks)))
		s.obsRawBytes.Add(int64(a.Bytes))
		s.obsCompBytes.Add(int64(disk))
	} else {
		footer := AppendFooter(nil, a.Index, uint32(a.Bytes))
		if err := s.be.Append(a.Name, footer); err != nil {
			return err
		}
		a.DiskBytes = a.Bytes + FooterSize
	}
	a.Sealed = true
	sh.sealed = append(sh.sealed, a)
	sh.active = nil
	span.End()
	return nil
}

// compactLocked merges the trailing run of small sealed segments with
// consecutive sequence numbers into one when the run reaches
// CompactMin — the store's answer to a slow writer being sealed
// repeatedly by Flush, so segment count stays proportional to data
// volume. (A gap is a segment abandoned after a failed write; its file
// waits for Open's salvage and must not fall inside a merged range.)
// Caller holds sh.mu.
func (s *Store) compactLocked(sh *shard) error {
	small := func(in *SegmentInfo) bool { return in.Tier == 0 && in.Bytes*2 < s.cfg.SegmentCap }
	i := len(sh.sealed)
	for i > 0 && small(sh.sealed[i-1]) &&
		(i == len(sh.sealed) || sh.sealed[i-1].End+1 == sh.sealed[i].Start) {
		i--
	}
	run := sh.sealed[i:]
	if len(run) < s.cfg.CompactMin {
		return nil
	}
	span := obs.StartSpan(s.compactNS)
	recs, x, rawBytes, err := s.readRun(run)
	if err != nil {
		return err
	}
	out, err := encodeRecs(recs, s.cfg)
	if err != nil {
		return err
	}
	merged := &SegmentInfo{
		Name:  segName(sh.id, run[0].Start, run[len(run)-1].End, 0),
		Shard: sh.id, Start: run[0].Start, End: run[len(run)-1].End,
		Bytes: rawBytes, DiskBytes: len(out), Index: x, Sealed: true,
	}
	if err := s.be.Create(merged.Name, out); err != nil {
		return err
	}
	for _, info := range run {
		if info.Name != merged.Name {
			_ = s.be.Remove(info.Name)
		}
	}
	sh.sealed = append(sh.sealed[:i], merged)
	s.statsMu.Lock()
	s.stats.Compactions++
	s.statsMu.Unlock()
	s.obsCompactions.Inc()
	span.End()
	return nil
}

// readRun reads and parses a run of sealed segments, returning their
// records with the merged index and v1-equivalent size.
func (s *Store) readRun(run []*SegmentInfo) ([]Rec, Index, int, error) {
	var recs []Rec
	var x Index
	rawBytes := 0
	for _, info := range run {
		data, err := s.be.Read(info.Name)
		if err != nil {
			return nil, x, 0, err
		}
		seg, err := ParseSegment(data)
		if err != nil {
			return nil, x, 0, err
		}
		for _, r := range seg.Recs {
			x.Add(r.Meta)
			rawBytes += FrameSize(len(r.Line))
		}
		recs = append(recs, seg.Recs...)
	}
	return recs, x, rawBytes, nil
}

// maintainLocked is the retention pass a rotation runs: expire sealed
// segments beyond the retention horizon inline (a Remove each, cheap),
// and when a cold run is ready for the archival tier, hand it to the
// background archiver instead of re-encoding it here under the shard
// lock. Caller holds sh.mu.
func (s *Store) maintainLocked(sh *shard) {
	s.expireLocked(sh)
	if i, j := s.archiveRunLocked(sh); j > i {
		s.signalArchiver()
	}
}

// expireLocked removes the sealed segments whose newest record has
// fallen more than RetainFor behind the newest record the store has
// seen. Ages are cpuTime distances, so retention advances with the
// workload's clock, not the host's. Caller holds sh.mu.
func (s *Store) expireLocked(sh *shard) {
	if s.cfg.RetainFor == 0 {
		return
	}
	maxSeen := s.maxSeen.Load()
	kept := sh.sealed[:0]
	expired, expiredRecs := 0, 0
	for _, info := range sh.sealed {
		if info.Index.MaxTime+s.cfg.RetainFor < maxSeen {
			if err := s.be.Remove(info.Name); err == nil {
				expired++
				expiredRecs += int(info.Index.Count)
				continue
			}
		}
		kept = append(kept, info)
	}
	sh.sealed = kept
	if expired > 0 {
		s.statsMu.Lock()
		s.stats.Expired += expired
		s.statsMu.Unlock()
		s.obsExpiredSegs.Add(int64(expired))
		s.obsExpiredRecs.Add(int64(expiredRecs))
	}
}

// archiveRunLocked plans the shard's next archive: sh.sealed[i:j], the
// oldest run of cold hot-tier segments with consecutive sequence
// numbers, at most archiveRunMax long (j == i when there is none).
// Archives already at the front of the list are skipped, never
// re-archived. Caller holds sh.mu.
func (s *Store) archiveRunLocked(sh *shard) (i, j int) {
	if s.cfg.ArchiveAfter == 0 {
		return 0, 0
	}
	maxSeen := s.maxSeen.Load()
	for i < len(sh.sealed) && sh.sealed[i].Tier != 0 {
		i++
	}
	j = i
	for j < len(sh.sealed) && j-i < archiveRunMax &&
		sh.sealed[j].Tier == 0 && sh.sealed[j].Index.MaxTime+s.cfg.ArchiveAfter < maxSeen &&
		(j == i || sh.sealed[j].Start == sh.sealed[j-1].End+1) {
		j++
	}
	// A lone cold segment waits another ArchiveAfter before archiving
	// alone: under continuous ingest segments cool one rotation apart
	// and would otherwise each become a single-segment archive —
	// recompressed but never merged. Deferring the run start lets
	// neighbors cool and join; a straggler with no neighbors still
	// archives at twice the age.
	if j == i+1 && sh.sealed[i].Index.MaxTime+2*s.cfg.ArchiveAfter >= maxSeen {
		return i, i
	}
	return i, j
}

// archiveOnce rolls the shard's next cold run into one archival-tier
// segment (re-encoded at DefaultCompression with 4x blocks — cold data
// trades decode cost for space) in three steps: plan under sh.mu; read
// and encode with no lock held, since sealed files are immutable; and
// commit under sh.mu only if sh.sealed still holds the planned
// segments in a row. A compaction or expiry that moved them first
// wins: the work is dropped and the run re-planned. It reports whether
// a run was committed.
func (s *Store) archiveOnce(sh *shard) (bool, error) {
	for {
		sh.mu.Lock()
		i, j := s.archiveRunLocked(sh)
		run := append([]*SegmentInfo(nil), sh.sealed[i:j]...)
		sh.mu.Unlock()
		if len(run) == 0 {
			return false, nil
		}
		span := obs.StartSpan(s.archiveNS)
		recs, x, rawBytes, err := s.readRun(run)
		var out []byte
		if err == nil {
			out, err = encodeSegmentV2(recs, flate.DefaultCompression, 4*s.cfg.BlockTarget)
		}
		sh.mu.Lock()
		i = runIndex(sh.sealed, run)
		if i < 0 {
			sh.mu.Unlock()
			continue
		}
		if err == nil {
			err = s.commitArchiveLocked(sh, i, run, out, x, rawBytes)
		}
		sh.mu.Unlock()
		if err != nil {
			return false, err
		}
		span.End()
		return true, nil
	}
}

// runIndex returns where run sits, pointer for pointer and in a row,
// in sealed, or -1 when it no longer does.
func runIndex(sealed, run []*SegmentInfo) int {
	for i, info := range sealed {
		if info != run[0] {
			continue
		}
		if i+len(run) > len(sealed) {
			return -1
		}
		for k := range run {
			if sealed[i+k] != run[k] {
				return -1
			}
		}
		return i
	}
	return -1
}

// commitArchiveLocked writes an encoded archive of sh.sealed[i:i+len(run)]
// and retires the run. The archive is created before the inputs are
// removed, so a crash in between leaves files that Open and OpenReader
// resolve by dropCovered. Caller holds sh.mu.
func (s *Store) commitArchiveLocked(sh *shard, i int, run []*SegmentInfo, out []byte, x Index, rawBytes int) error {
	merged := &SegmentInfo{
		Name:  segName(sh.id, run[0].Start, run[len(run)-1].End, 1),
		Shard: sh.id, Start: run[0].Start, End: run[len(run)-1].End,
		Bytes: rawBytes, DiskBytes: len(out), Tier: 1, Index: x, Sealed: true,
	}
	if err := s.be.Create(merged.Name, out); err != nil {
		return err
	}
	for _, info := range run {
		_ = s.be.Remove(info.Name)
	}
	sh.sealed[i] = merged
	sh.sealed = append(sh.sealed[:i+1], sh.sealed[i+len(run):]...)
	s.statsMu.Lock()
	s.stats.Archived += len(run)
	s.statsMu.Unlock()
	s.obsArchived.Add(int64(len(run)))
	s.obsArchiveRuns.Inc()
	return nil
}

// signalArchiver asks the background archiver for a pass, starting it
// if it is not running. Called under sh.mu.
func (s *Store) signalArchiver() {
	s.archMu.Lock()
	defer s.archMu.Unlock()
	if s.archClosed {
		return
	}
	s.archDirty = true
	if s.archRunning {
		return
	}
	s.archRunning = true
	s.archWG.Add(1)
	go s.archive()
}

// archive is the background archiver: it archives every shard's cold
// runs until a whole pass finds none and no rotation has signalled
// since, then exits — it never outlives the work, so a store nobody
// closes is not kept reachable by it. Errors cannot reach an appender
// from here; they are counted (store.archive_errors) and the shard is
// retried at the next signal.
func (s *Store) archive() {
	defer s.archWG.Done()
	for s.nextArchivePass() {
		for _, sh := range s.shards {
			for !s.archiverClosed() {
				ok, err := s.archiveOnce(sh)
				if err != nil {
					s.obsArchiveErrs.Inc()
				}
				if !ok {
					break
				}
			}
		}
	}
}

// nextArchivePass reports whether the archiver has been signalled
// since its last pass; when it has not, the archiver is marked stopped
// under the same lock, so a signal racing the exit starts a new one.
func (s *Store) nextArchivePass() bool {
	s.archMu.Lock()
	defer s.archMu.Unlock()
	if !s.archDirty || s.archClosed {
		s.archRunning = false
		return false
	}
	s.archDirty = false
	return true
}

func (s *Store) archiverClosed() bool {
	s.archMu.Lock()
	defer s.archMu.Unlock()
	return s.archClosed
}

// Close stops the background archiver, waiting for a run in flight to
// commit or be dropped. The store stays usable — appends, Flush and
// Maintain work as before — but rotations no longer archive in the
// background. Records are durable without Close; it exists so an owner
// can be sure nothing touches the backend after it returns.
func (s *Store) Close() error {
	s.archMu.Lock()
	s.archClosed = true
	s.archMu.Unlock()
	s.archWG.Wait()
	return nil
}

// Maintain runs the retention pass on every shard now, instead of
// waiting for the next rotation to trigger it: expiry, then one
// archive run per shard, inline.
func (s *Store) Maintain() error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		s.expireLocked(sh)
		sh.mu.Unlock()
		if _, err := s.archiveOnce(sh); err != nil {
			return err
		}
	}
	return nil
}

// Flush seals every non-empty active segment, making all appended
// records visible behind footers (an unsealed segment is still
// readable, but must be scanned), then compacts and runs the retention
// pass inline, as Maintain does.
func (s *Store) Flush() error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := s.sealLocked(sh)
		if err == nil {
			err = s.compactLocked(sh)
		}
		if err == nil {
			s.expireLocked(sh)
		}
		sh.mu.Unlock()
		if err == nil {
			_, err = s.archiveOnce(sh)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot of the write-side counters.
func (s *Store) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// Segments returns a snapshot of every segment's metadata, sealed and
// active, in shard order.
func (s *Store) Segments() []SegmentInfo {
	var out []SegmentInfo
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, info := range sh.sealed {
			out = append(out, *info)
		}
		if sh.active != nil {
			out = append(out, *sh.active)
		}
		sh.mu.Unlock()
	}
	return out
}

// ReaderSegment is one segment as seen by a Reader: its footer index
// when sealed (usable for pruning without touching the frames), and
// its raw bytes for when it must actually be scanned.
type ReaderSegment struct {
	Name   string
	Shard  int
	Start  int
	End    int
	Tier   int
	Index  Index
	Sealed bool
	data   []byte
	// Sealed v1 segments record where their frames end; sealed v2
	// segments carry the parsed footer (dictionary + block table).
	dataLen int
	v2      *footerV2
}

func (rs *ReaderSegment) span() (start, end, tier int) { return rs.Start, rs.End, rs.Tier }

// Load parses the segment's records. An unsealed segment with a torn
// tail yields its valid prefix and ErrTruncated.
func (rs *ReaderSegment) Load() (*Segment, error) {
	return ParseSegment(rs.data)
}

// RawBytes returns the segment's v1-equivalent (uncompressed framed)
// size, the numerator of its compression ratio.
func (rs *ReaderSegment) RawBytes() int {
	if rs.v2 != nil {
		return rs.v2.RawTotal
	}
	if rs.Sealed {
		return rs.dataLen
	}
	return len(rs.data)
}

// DiskBytes returns the segment's on-disk size.
func (rs *ReaderSegment) DiskBytes() int { return len(rs.data) }

// Reader is a point-in-time read-only view of a store: the segment
// files present at OpenReader, grouped by shard in rotation order.
// Sealed segments expose their footer index so callers can prune them
// without parsing any frames.
type Reader struct {
	shards [][]*ReaderSegment
}

// openReaderAttempts bounds OpenReader's restarts after a file listed
// by one pass was removed before that pass could read it.
const openReaderAttempts = 16

// OpenReader snapshots the store behind a backend. It reads each
// segment file once and parses footers only; frame parsing is deferred
// to ReaderSegment.Load so pruned segments never pay it.
//
// The snapshot is consistent while a writer compacts, archives or
// expires: of the files listed, those covered by a merged file are not
// read (see dropCovered), so a run listed beside its archive is not
// counted twice; and a listed file that is gone by the time it is read
// restarts the snapshot from List. A restart re-reads only the files
// that were not yet sealed — sealed files never change — so each
// attempt is cheaper than the last.
func OpenReader(be Backend) (*Reader, error) {
	sealed := make(map[string]*ReaderSegment)
	var err error
	for attempt := 0; attempt < openReaderAttempts; attempt++ {
		var r *Reader
		if r, err = openReader(be, sealed); err == nil || !isNotExist(err) {
			return r, err
		}
	}
	return nil, err
}

// openReader is one OpenReader attempt; sealed caches the sealed
// segments read by earlier attempts.
func openReader(be Backend, sealed map[string]*ReaderSegment) (*Reader, error) {
	names, err := be.List()
	if err != nil {
		return nil, err
	}
	byShard := make(map[int][]*ReaderSegment)
	maxShard := -1
	for _, name := range names {
		sh, start, end, tier, ok := parseSegName(name)
		if !ok {
			continue
		}
		if sh > maxShard {
			maxShard = sh
		}
		byShard[sh] = append(byShard[sh], &ReaderSegment{Name: name, Shard: sh, Start: start, End: end, Tier: tier})
	}
	r := &Reader{}
	for i := 0; i <= maxShard; i++ {
		segs, _ := dropCovered(byShard[i], (*ReaderSegment).span)
		for k, rs := range segs {
			if cached := sealed[rs.Name]; cached != nil {
				segs[k] = cached
				continue
			}
			if rs.data, err = be.Read(rs.Name); err != nil {
				return nil, err
			}
			if x, dataLen, ok := ParseFooter(rs.data); ok {
				rs.Index = x
				rs.dataLen = dataLen
				rs.Sealed = true
			} else if f, ok := parseFooterV2(rs.data); ok {
				rs.Index = f.Index
				rs.v2 = f
				rs.Sealed = true
			}
			if rs.Sealed {
				sealed[rs.Name] = rs
			}
		}
		r.shards = append(r.shards, segs)
	}
	return r, nil
}

// Shards returns the reader's segments grouped by shard, in rotation
// order within each shard. Callers must not modify the slices.
func (r *Reader) Shards() [][]*ReaderSegment { return r.shards }

// NumSegments returns the total number of segments in the snapshot.
func (r *Reader) NumSegments() int {
	n := 0
	for _, segs := range r.shards {
		n += len(segs)
	}
	return n
}

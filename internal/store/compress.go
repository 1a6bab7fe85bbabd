// Compressed (version 2) segments. Meter records are highly
// repetitive — a handful of event names, monotone cpuTime clocks,
// near-identical lines per event type — so sealed segments compress
// far better than the v1 CRC-framed text if the encoder exploits that
// structure before the byte-level compressor sees it:
//
//   - Records are grouped into *blocks* of ~BlockTarget (v1-equivalent)
//     bytes. Each block is one independent DEFLATE stream, so a reader
//     can decompress exactly the blocks a query admits.
//   - Within a block, each record is delta/varint encoded: machine,
//     zigzag(cpuTime delta), type, pid, then the line front-coded
//     against the previous line of the same type slot (shared prefix
//     and suffix lengths plus a middle section).
//   - Middle sections encode through a per-segment shared-name
//     dictionary: tokens (words, key= prefixes) that recur across
//     records become one- or two-byte references. Definitions are
//     carried in-stream (so an unsealed segment is self-describing for
//     salvage) and repeated in the footer (so a sealed reader can
//     decode any block without replaying the ones before it).
//   - The sealed footer carries a per-block table — offset, compressed
//     and raw lengths, a CRC over the compressed bytes, and a zone map
//     (the same Index as the v1 footer, per block) — so internal/query
//     prunes at block granularity, not just whole segments.
//
// Durability matches the v1 path: every flush ends with a DEFLATE sync
// marker, so everything a backend Append carried is decodable even if
// the writer dies before sealing; the block boundaries of a torn
// segment are recovered by walking the concatenated streams (a
// bytes.Reader hands DEFLATE exactly the bytes it needs, so stream
// ends land on stream starts).
//
// File layout:
//
//	[8B header: "DPMZ" + reserved u32]
//	[block 0: one DEFLATE stream][block 1] ... [block n-1]
//	[footer body: dictionary entries + block table, varint encoded]
//	[72B footer tail: "DPMS" v2, segment index, lengths, CRCs]
//
// The tail shares its first 48 bytes with the v1 footer but is 72
// bytes with version 2, so v1 readers reject it cleanly (magic lands
// in the wrong place for a 56-byte parse) and v2 readers find the body
// by the dataLen/bodyLen fields.
package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// CompressMode selects the on-disk encoding a store writes.
type CompressMode int

const (
	// CompressOff writes v1 CRC-framed segments (the default).
	CompressOff CompressMode = iota
	// CompressBlocks writes v2 block-compressed segments.
	CompressBlocks
)

const (
	segMagicV2      = "DPMZ"
	headerV2Size    = 8
	footerVersionV2 = 2

	// FooterV2Size is the fixed tail of a sealed v2 segment; the
	// variable-length footer body (dictionary + block table) precedes it.
	FooterV2Size = 72

	// DefaultBlockTarget is the v1-equivalent byte size at which a block
	// closes and the next DEFLATE stream starts.
	DefaultBlockTarget = 64 << 10

	// nameSlots is the number of previous-line slots used for
	// front-coding, keyed by Type%nameSlots: consecutive records of the
	// same event type are near-identical even when types interleave.
	nameSlots = 16

	// Dictionary limits: at most maxDictEntries tokens of
	// [minDictToken, maxDictToken] bytes each per segment.
	maxDictEntries = 512
	minDictToken   = 2
	maxDictToken   = 48

	// maxBlockRaw bounds a block's declared decoded size; larger values
	// in a footer are corruption, not data.
	maxBlockRaw = 1 << 26
)

// Middle-section opcodes. Values >= opRefBase are dictionary
// references (id = op - opRefBase).
const (
	opEnd     = 0
	opLit     = 1
	opDef     = 2
	opRefBase = 3
)

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintAt decodes one uvarint at off, returning the value and the
// new offset. A plain function (not a closure over off) so the hot
// decode loop allocates nothing.
func uvarintAt(raw []byte, off int) (uint64, int, bool) {
	v, n := binary.Uvarint(raw[off:])
	if n <= 0 {
		return 0, off, false
	}
	return v, off + n, true
}

// BlockInfo describes one block of a sealed v2 segment.
type BlockInfo struct {
	// Off is the block's byte offset from the end of the file header;
	// CompLen its compressed length; RawLen its decoded payload length.
	Off, CompLen, RawLen int
	// CRC is the IEEE CRC over the compressed bytes.
	CRC uint32
	// Index is the block's zone map: the same conservative summary a v1
	// footer carries for a whole segment, scoped to this block.
	Index Index
}

// footerV2 is a parsed v2 footer.
type footerV2 struct {
	Index    Index
	DataLen  int // header + block bytes; the footer body starts here
	RawTotal int // v1-equivalent bytes of the whole segment
	Dict     [][]byte
	Blocks   []BlockInfo
}

// compSink accumulates the writer's DEFLATE output pending a backend
// append, keeping a running CRC of the current block's bytes.
type compSink struct {
	buf   []byte
	crc   uint32
	total int // block-region bytes emitted so far (header excluded)
}

func (cs *compSink) Write(p []byte) (int, error) {
	cs.buf = append(cs.buf, p...)
	cs.crc = crc32.Update(cs.crc, crc32.IEEETable, p)
	cs.total += len(p)
	return len(p), nil
}

// compWriter is the per-shard v2 segment encoder. All state is guarded
// by the owning shard's mutex. Records are staged (delta/front-coded)
// into enc as they arrive and pushed through the DEFLATE stream at
// flush time, so compression cost is paid incrementally on the ingest
// path instead of as a seal-time rewrite.
type compWriter struct {
	level  int
	target int

	sink compSink
	fw   *flate.Writer

	// Staged-but-unflushed state: the encoded payload, its
	// v1-equivalent size, and the record count (metadata is in the
	// shard's pending slice).
	enc      []byte
	stagedV1 int
	stagedN  int

	// Current block accumulation (flushed records only).
	curIdx Index
	curOff int
	curRaw int // decoded payload bytes written this block
	curV1  int // v1-equivalent bytes written this block

	blocks []blockMeta

	dictIDs     map[string]int
	dictEntries [][]byte

	prev     [nameSlots][]byte
	prevTime uint32

	lineBuf []byte // string→[]byte staging for the single-record path
}

type blockMeta struct {
	off, compLen, rawLen int
	crc                  uint32
	idx                  Index
}

// newCompWriter builds a v2 encoder. Level 0 (the online default) is
// flate.NoCompression: the structural encoding — front-coding, shared
// dictionary, delta/varint — has already squeezed the records ~7x, and
// DEFLATE entropy coding over that dense payload buys little while a
// dynamic-Huffman build per sync flush costs ~3x the whole ingest
// path. Stored flate blocks keep the sync-marker durability contract
// for free. The archival tier re-encodes cold segments once, at
// DefaultCompression, on the store's background archiver — not on the
// append path: run inline under the shard lock at BestCompression, it
// made the benchmark ingest's per-record append cost ~4x (8.2–9.2 µs
// against 2.0–2.3 µs, 2-vCPU Xeon; docs/store.md).
func newCompWriter(level, target int) *compWriter {
	if target <= 0 {
		target = DefaultBlockTarget
	}
	w := &compWriter{level: level, target: target}
	w.fw, _ = flate.NewWriter(&w.sink, level)
	return w
}

// openSegment resets the writer for a fresh segment and stages the
// file header.
func (w *compWriter) openSegment() {
	w.sink.buf = append(w.sink.buf[:0], segMagicV2...)
	w.sink.buf = append(w.sink.buf, 0, 0, 0, 0)
	w.sink.crc, w.sink.total = 0, 0
	w.fw.Reset(&w.sink)
	w.enc = w.enc[:0]
	w.stagedV1, w.stagedN = 0, 0
	w.curIdx, w.curOff, w.curRaw, w.curV1 = Index{}, 0, 0, 0
	w.blocks = w.blocks[:0]
	if w.dictIDs == nil {
		w.dictIDs = make(map[string]int)
	} else {
		clear(w.dictIDs)
	}
	w.dictEntries = w.dictEntries[:0]
	w.resetBlockCoding()
}

func (w *compWriter) resetBlockCoding() {
	for i := range w.prev {
		w.prev[i] = w.prev[i][:0]
	}
	w.prevTime = 0
}

// closeBlock finishes the current DEFLATE stream and records the
// block's table entry. No-op on an empty block.
func (w *compWriter) closeBlock() error {
	if w.curRaw == 0 {
		return nil
	}
	if err := w.fw.Close(); err != nil {
		return err
	}
	w.blocks = append(w.blocks, blockMeta{
		off: w.curOff, compLen: w.sink.total - w.curOff,
		rawLen: w.curRaw, crc: w.sink.crc, idx: w.curIdx,
	})
	w.curOff = w.sink.total
	w.curRaw, w.curV1 = 0, 0
	w.curIdx = Index{}
	w.sink.crc = 0
	w.fw.Reset(&w.sink)
	w.resetBlockCoding()
	return nil
}

// stage delta/front-codes one record into the staging buffer. The
// block boundary is checked only when nothing is staged, so encoder
// and decoder agree on where front-coding state resets.
func (w *compWriter) stage(m Meta, line []byte) error {
	if w.stagedN == 0 && w.curV1 >= w.target {
		if err := w.closeBlock(); err != nil {
			return err
		}
	}
	e := w.enc
	e = binary.AppendUvarint(e, uint64(m.Machine))
	e = binary.AppendUvarint(e, zigzag(int64(m.Time)-int64(w.prevTime)))
	w.prevTime = m.Time
	e = binary.AppendUvarint(e, uint64(m.Type))
	e = binary.AppendUvarint(e, uint64(m.PID))

	slot := int(m.Type) % nameSlots
	prev := w.prev[slot]
	p := commonPrefix(prev, line)
	s := commonSuffix(prev[p:], line[p:])
	mid := line[p : len(line)-s]
	e = binary.AppendUvarint(e, uint64(p))
	e = binary.AppendUvarint(e, uint64(s))
	if len(mid)*2 > len(line) {
		// Front-coding bought little (a first record, or a reordered
		// line): tokenize the middle through the shared dictionary.
		e = w.encodeTokens(e, mid)
	} else if len(mid) > 0 {
		e = append(e, opLit)
		e = binary.AppendUvarint(e, uint64(len(mid)))
		e = append(e, mid...)
	}
	e = append(e, opEnd)
	w.enc = e
	w.prev[slot] = append(w.prev[slot][:0], line...)
	w.stagedV1 += FrameSize(len(line))
	w.stagedN++
	return nil
}

func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func commonSuffix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}

// encodeTokens emits mid as a sequence of literal runs and dictionary
// references/definitions. Tokens are space-run + word units; a token
// containing '=' splits into a key (through the '=', a strong
// dictionary candidate: field names recur on every record) and a
// value.
func (w *compWriter) encodeTokens(e []byte, mid []byte) []byte {
	lit := 0 // start of the pending literal run
	flushLit := func(end int) {
		if end > lit {
			e = append(e, opLit)
			e = binary.AppendUvarint(e, uint64(end-lit))
			e = append(e, mid[lit:end]...)
		}
	}
	// tryTok emits mid[start:end] as a dictionary ref (defining it on
	// first sight when it qualifies); false leaves it in the pending
	// literal run.
	tryTok := func(start, end int) {
		tok := mid[start:end]
		if len(tok) < minDictToken || len(tok) > maxDictToken {
			return
		}
		if id, ok := w.dictIDs[string(tok)]; ok {
			flushLit(start)
			e = binary.AppendUvarint(e, uint64(opRefBase+id))
			lit = end
			return
		}
		if len(w.dictEntries) >= maxDictEntries {
			return
		}
		cp := append([]byte(nil), tok...)
		w.dictIDs[string(cp)] = len(w.dictEntries)
		w.dictEntries = append(w.dictEntries, cp)
		flushLit(start)
		e = append(e, opDef)
		e = binary.AppendUvarint(e, uint64(len(cp)))
		e = append(e, cp...)
		lit = end
	}
	i := 0
	for i < len(mid) {
		j := i
		for j < len(mid) && mid[j] == ' ' {
			j++
		}
		for j < len(mid) && mid[j] != ' ' {
			j++
		}
		if k := bytes.IndexByte(mid[i:j], '='); k >= 0 {
			tryTok(i, i+k+1) // key, leading spaces and '=' included
			if j-(i+k+1) >= 4 {
				tryTok(i+k+1, j) // value, when long enough to pay
			}
		} else {
			tryTok(i, j)
		}
		i = j
	}
	flushLit(len(mid))
	return e
}

// flushStaged pushes the staged payload through the DEFLATE stream;
// with sync it ends on a sync marker so the bytes now in the sink form
// a decodable prefix. The caller owns writing sink.buf to the backend
// and folding the pending metadata into the block/segment indexes.
func (w *compWriter) flushStaged(sync bool) error {
	if len(w.enc) > 0 {
		if _, err := w.fw.Write(w.enc); err != nil {
			return err
		}
	}
	if sync {
		if err := w.fw.Flush(); err != nil {
			return err
		}
	}
	w.curRaw += len(w.enc)
	w.curV1 += w.stagedV1
	w.enc = w.enc[:0]
	w.stagedV1, w.stagedN = 0, 0
	return nil
}

// foldMeta folds one flushed record's metadata into the current
// block's zone map.
func (w *compWriter) foldMeta(m Meta) { w.curIdx.Add(m) }

// seal closes the open block and returns the remaining unwritten bytes
// of the segment — pending block output plus the footer — and the
// total on-disk size of the sealed file.
func (w *compWriter) seal(x Index, rawTotal int) ([]byte, int, error) {
	if err := w.closeBlock(); err != nil {
		return nil, 0, err
	}
	dataLen := headerV2Size + w.sink.total
	disk := dataLen + footerV2Len(w.dictEntries, w.blocks)
	out := appendFooterV2(w.sink.buf, x, uint32(dataLen), uint32(rawTotal), w.dictEntries, w.blocks)
	w.sink.buf = nil // ownership passes to the caller's backend write
	return out, disk, nil
}

func footerV2Len(dict [][]byte, blocks []blockMeta) int {
	n := uvarintLen(uint64(len(dict)))
	for _, e := range dict {
		n += uvarintLen(uint64(len(e))) + len(e)
	}
	for _, b := range blocks {
		n += uvarintLen(uint64(b.off)) + uvarintLen(uint64(b.compLen)) + uvarintLen(uint64(b.rawLen)) + 4
		n += uvarintLen(uint64(b.idx.Count)) + uvarintLen(b.idx.MinTime) + uvarintLen(b.idx.MaxTime) + 8 + 8 + 4
	}
	return n + FooterV2Size
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendFooterV2 appends the footer body (dictionary + block table)
// and the fixed tail.
func appendFooterV2(dst []byte, x Index, dataLen, rawTotal uint32, dict [][]byte, blocks []blockMeta) []byte {
	le := binary.LittleEndian
	bodyStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, e := range dict {
		dst = binary.AppendUvarint(dst, uint64(len(e)))
		dst = append(dst, e...)
	}
	for _, b := range blocks {
		dst = binary.AppendUvarint(dst, uint64(b.off))
		dst = binary.AppendUvarint(dst, uint64(b.compLen))
		dst = binary.AppendUvarint(dst, uint64(b.rawLen))
		dst = le.AppendUint32(dst, b.crc)
		dst = binary.AppendUvarint(dst, uint64(b.idx.Count))
		dst = binary.AppendUvarint(dst, b.idx.MinTime)
		dst = binary.AppendUvarint(dst, b.idx.MaxTime)
		dst = le.AppendUint64(dst, b.idx.Machines)
		dst = le.AppendUint64(dst, b.idx.PIDs)
		dst = le.AppendUint32(dst, b.idx.Types)
	}
	bodyCRC := crc32.ChecksumIEEE(dst[bodyStart:])
	bodyLen := len(dst) - bodyStart
	var t [FooterV2Size]byte
	copy(t[0:4], footerMagic)
	le.PutUint32(t[4:8], footerVersionV2)
	le.PutUint32(t[8:12], x.Count)
	le.PutUint64(t[12:20], x.MinTime)
	le.PutUint64(t[20:28], x.MaxTime)
	le.PutUint64(t[28:36], x.Machines)
	le.PutUint64(t[36:44], x.PIDs)
	le.PutUint32(t[44:48], x.Types)
	le.PutUint32(t[48:52], dataLen)
	le.PutUint32(t[52:56], uint32(bodyLen))
	le.PutUint32(t[56:60], uint32(len(blocks)))
	le.PutUint32(t[60:64], rawTotal)
	le.PutUint32(t[64:68], bodyCRC)
	le.PutUint32(t[68:72], crc32.ChecksumIEEE(t[:68]))
	return append(dst, t[:]...)
}

// parseFooterV2 examines a segment file for a valid v2 footer.
// ok=false means "not a sealed v2 segment" — unsealed, v1, or a
// mangled footer (which degrades to stream salvage, as a mangled v1
// footer degrades to a frame scan).
func parseFooterV2(data []byte) (*footerV2, bool) {
	if len(data) < headerV2Size+FooterV2Size || string(data[0:4]) != segMagicV2 {
		return nil, false
	}
	le := binary.LittleEndian
	t := data[len(data)-FooterV2Size:]
	if string(t[0:4]) != footerMagic || le.Uint32(t[4:8]) != footerVersionV2 {
		return nil, false
	}
	if crc32.ChecksumIEEE(t[:68]) != le.Uint32(t[68:72]) {
		return nil, false
	}
	f := &footerV2{
		DataLen:  int(le.Uint32(t[48:52])),
		RawTotal: int(le.Uint32(t[60:64])),
	}
	f.Index.Count = le.Uint32(t[8:12])
	f.Index.MinTime = le.Uint64(t[12:20])
	f.Index.MaxTime = le.Uint64(t[20:28])
	f.Index.Machines = le.Uint64(t[28:36])
	f.Index.PIDs = le.Uint64(t[36:44])
	f.Index.Types = le.Uint32(t[44:48])
	bodyLen := int(le.Uint32(t[52:56]))
	blockCount := int(le.Uint32(t[56:60]))
	if f.DataLen < headerV2Size || f.DataLen+bodyLen+FooterV2Size != len(data) {
		return nil, false
	}
	body := data[f.DataLen : f.DataLen+bodyLen]
	if crc32.ChecksumIEEE(body) != le.Uint32(t[64:68]) {
		return nil, false
	}
	// Decode the body. Any malformation fails the parse (degrading the
	// file to stream salvage) rather than risking a bad table.
	off := 0
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	nd, ok := next()
	if !ok || nd > maxDictEntries {
		return nil, false
	}
	f.Dict = make([][]byte, 0, nd)
	for i := 0; i < int(nd); i++ {
		l, ok := next()
		if !ok || l > maxDictToken || off+int(l) > len(body) {
			return nil, false
		}
		f.Dict = append(f.Dict, body[off:off+int(l)])
		off += int(l)
	}
	if blockCount < 0 || blockCount > len(body) {
		return nil, false
	}
	region := f.DataLen - headerV2Size
	f.Blocks = make([]BlockInfo, 0, blockCount)
	for i := 0; i < blockCount; i++ {
		var b BlockInfo
		var v uint64
		if v, ok = next(); !ok {
			return nil, false
		}
		b.Off = int(v)
		if v, ok = next(); !ok {
			return nil, false
		}
		b.CompLen = int(v)
		if v, ok = next(); !ok {
			return nil, false
		}
		b.RawLen = int(v)
		if off+4 > len(body) {
			return nil, false
		}
		b.CRC = le.Uint32(body[off:])
		off += 4
		if v, ok = next(); !ok {
			return nil, false
		}
		b.Index.Count = uint32(v)
		if b.Index.MinTime, ok = next(); !ok {
			return nil, false
		}
		if b.Index.MaxTime, ok = next(); !ok {
			return nil, false
		}
		if off+20 > len(body) {
			return nil, false
		}
		b.Index.Machines = le.Uint64(body[off:])
		b.Index.PIDs = le.Uint64(body[off+8:])
		b.Index.Types = le.Uint32(body[off+16:])
		off += 20
		// Off is bounded before the subtraction so the block-extent test
		// is overflow-free — a crafted table passes the footer CRCs (they
		// live in the file), so a wrapped Off+CompLen sum would otherwise
		// reach the region slicing in Scan.
		if b.Off < 0 || b.CompLen < 0 || b.Off > region || b.CompLen > region-b.Off ||
			b.RawLen <= 0 || b.RawLen > maxBlockRaw {
			return nil, false
		}
		f.Blocks = append(f.Blocks, b)
	}
	if off != len(body) {
		return nil, false
	}
	return f, true
}

// Decoder decompresses and decodes v2 blocks through reused buffers: a
// warmed decoder allocates nothing per block. Decoders are not safe
// for concurrent use; Acquire one per goroutine.
type Decoder struct {
	br       bytes.Reader
	zr       io.ReadCloser
	zres     flate.Resetter
	raw      []byte
	line     []byte
	one      [1]byte // over-read probe; a field so it never escapes
	prev     [nameSlots][]byte
	dict     [][]byte
	dictBuf  [][]byte // decoder-owned grow-mode backing array; see decodeStreams
	growDict bool
}

var decoderPool = sync.Pool{New: func() any { return newDecoder() }}

// AcquireDecoder returns a pooled decoder; pair with ReleaseDecoder.
func AcquireDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// ReleaseDecoder returns a decoder to the pool. Lines handed to scan
// callbacks alias the decoder's buffers and must not be retained past
// release.
func ReleaseDecoder(d *Decoder) { decoderPool.Put(d) }

func newDecoder() *Decoder {
	d := &Decoder{}
	d.zr = flate.NewReader(&d.br)
	d.zres = d.zr.(flate.Resetter)
	return d
}

func (d *Decoder) resetBlockCoding() {
	for i := range d.prev {
		d.prev[i] = d.prev[i][:0]
	}
}

// decodeBlock decompresses one sealed block (checking its CRC and
// declared raw length) and emits its records. The line passed to fn is
// reused; callers must copy what they keep.
func (d *Decoder) decodeBlock(comp []byte, rawLen int, crc uint32, dict [][]byte, fn func(Meta, []byte)) (int, error) {
	if crc32.ChecksumIEEE(comp) != crc {
		return 0, fmt.Errorf("block checksum mismatch")
	}
	if rawLen <= 0 || rawLen > maxBlockRaw {
		return 0, fmt.Errorf("bad block raw length %d", rawLen)
	}
	d.br.Reset(comp)
	if err := d.zres.Reset(&d.br, nil); err != nil {
		return 0, err
	}
	if cap(d.raw) < rawLen {
		d.raw = make([]byte, rawLen)
	}
	raw := d.raw[:rawLen]
	if _, err := io.ReadFull(d.zr, raw); err != nil {
		return 0, fmt.Errorf("block decompress: %v", err)
	}
	if n, err := d.zr.Read(d.one[:]); n != 0 || (err != nil && err != io.EOF) {
		return 0, fmt.Errorf("block longer than declared")
	}
	d.dict, d.growDict = dict, false
	d.resetBlockCoding()
	n, consumed, err := d.decodeRecords(raw, fn)
	if err == nil && consumed != len(raw) {
		err = fmt.Errorf("%d trailing bytes in block payload", len(raw)-consumed)
	}
	return n, err
}

// decodeStreams walks the concatenated DEFLATE streams of an unsealed
// v2 segment (everything after the file header), growing the
// dictionary from in-stream definitions, and emits every cleanly
// decodable record. A torn tail — a stream or record cut mid-write —
// returns the count emitted so far with a non-nil error describing the
// tear; the records already emitted are the recoverable prefix.
func (d *Decoder) decodeStreams(data []byte, fn func(Meta, []byte)) (int, int, error) {
	d.br.Reset(data)
	// Grow into the decoder-OWNED backing array, never into whatever
	// d.dict last aliased: after a sealed-block decode it points at a
	// segment's shared footer dictionary, and appending through it
	// would overwrite entries that concurrent scans of that segment
	// are still reading.
	d.dict = d.dictBuf[:0]
	d.growDict = true
	total, streams := 0, 0
	for d.br.Len() > 0 {
		if err := d.zres.Reset(&d.br, nil); err != nil {
			return total, streams, err
		}
		raw, rerr := d.readStream()
		streams++
		d.resetBlockCoding()
		n, consumed, derr := d.decodeRecords(raw, fn)
		d.dictBuf = d.dict[:0] // retain capacity grown inside decodeRecords
		total += n
		if derr != nil {
			return total, streams, derr
		}
		if consumed != len(raw) {
			return total, streams, fmt.Errorf("%d trailing bytes in stream %d", len(raw)-consumed, streams-1)
		}
		if rerr != nil {
			// The stream itself tore (no terminator): everything it
			// yielded decoded cleanly, but nothing can follow it.
			if d.br.Len() > 0 {
				return total, streams, rerr
			}
			return total, streams, nil
		}
	}
	return total, streams, nil
}

// readStream drains the current DEFLATE stream into the reused raw
// buffer. err is non-nil when the stream ends without a terminator (a
// torn tail); the returned bytes are still the stream's decodable
// prefix.
func (d *Decoder) readStream() ([]byte, error) {
	raw := d.raw[:0]
	for {
		if len(raw) == cap(raw) {
			raw = append(raw, 0)[:len(raw)]
		}
		n, err := d.zr.Read(raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+n]
		if err == io.EOF {
			d.raw = raw
			return raw, nil
		}
		if err != nil {
			d.raw = raw
			return raw, err
		}
		if len(raw) > maxBlockRaw {
			d.raw = raw
			return raw, fmt.Errorf("stream exceeds %d decoded bytes", maxBlockRaw)
		}
	}
}

// decodeRecords decodes the records of one block payload, emitting
// each through fn. It returns the number emitted and the bytes
// consumed; a malformed record stops the decode at its start.
func (d *Decoder) decodeRecords(raw []byte, fn func(Meta, []byte)) (int, int, error) {
	var prevTime uint32
	off, emitted := 0, 0
	var ok bool
	for off < len(raw) {
		start := off
		var machine, dtv, typ, pid, p, s uint64
		if machine, off, ok = uvarintAt(raw, off); !ok || machine > 0xFFFF {
			return emitted, start, fmt.Errorf("bad machine at payload offset %d", start)
		}
		if dtv, off, ok = uvarintAt(raw, off); !ok {
			return emitted, start, fmt.Errorf("bad time delta at payload offset %d", start)
		}
		t := int64(prevTime) + unzigzag(dtv)
		if t < 0 || t > 0xFFFFFFFF {
			return emitted, start, fmt.Errorf("time out of range at payload offset %d", start)
		}
		if typ, off, ok = uvarintAt(raw, off); !ok || typ > 0xFFFFFFFF {
			return emitted, start, fmt.Errorf("bad type at payload offset %d", start)
		}
		if pid, off, ok = uvarintAt(raw, off); !ok || pid > 0xFFFFFFFF {
			return emitted, start, fmt.Errorf("bad pid at payload offset %d", start)
		}
		if p, off, ok = uvarintAt(raw, off); !ok {
			return emitted, start, fmt.Errorf("bad prefix length at payload offset %d", start)
		}
		if s, off, ok = uvarintAt(raw, off); !ok {
			return emitted, start, fmt.Errorf("bad suffix length at payload offset %d", start)
		}
		slot := int(typ) % nameSlots
		prev := d.prev[slot]
		// p and s are bounded individually before summing so p+s cannot
		// wrap uint64 and slip past the range checks.
		if p > MaxFrameSize || s > MaxFrameSize || p+s > uint64(len(prev)) || p+s > MaxFrameSize {
			return emitted, start, fmt.Errorf("front-coding overrun at payload offset %d", start)
		}
		line := d.line[:0]
		line = append(line, prev[:p]...)
		for {
			var op uint64
			if op, off, ok = uvarintAt(raw, off); !ok {
				return emitted, start, fmt.Errorf("bad opcode at payload offset %d", start)
			}
			if op == opEnd {
				break
			}
			switch {
			case op == opLit || op == opDef:
				var l uint64
				if l, off, ok = uvarintAt(raw, off); !ok || off+int(l) > len(raw) || l > MaxFrameSize {
					return emitted, start, fmt.Errorf("bad literal at payload offset %d", start)
				}
				b := raw[off : off+int(l)]
				off += int(l)
				line = append(line, b...)
				if op == opDef {
					if d.growDict {
						if len(d.dict) >= maxDictEntries || l < minDictToken || l > maxDictToken {
							return emitted, start, fmt.Errorf("bad dictionary definition at payload offset %d", start)
						}
						d.dict = append(d.dict, append([]byte(nil), b...))
					}
					// With a preloaded (footer) dictionary the entry is
					// already present; the definition just emits.
				}
			default:
				id := int(op) - opRefBase
				if id >= len(d.dict) {
					return emitted, start, fmt.Errorf("dictionary reference %d out of range at payload offset %d", id, start)
				}
				line = append(line, d.dict[id]...)
			}
			if len(line) > MaxFrameSize {
				return emitted, start, fmt.Errorf("line overruns frame limit at payload offset %d", start)
			}
		}
		line = append(line, prev[uint64(len(prev))-s:]...)
		m := Meta{Machine: uint16(machine), Time: uint32(t), Type: uint32(typ), PID: uint32(pid)}
		prevTime = m.Time
		fn(m, line)
		emitted++
		d.prev[slot], d.line = line, prev
	}
	return emitted, len(raw), nil
}

// ScanStats reports what one segment scan did.
type ScanStats struct {
	Blocks       int // blocks (or streams, or one pseudo-block for v1) visited
	BlocksPruned int // blocks skipped on zone-map evidence
	Records      int // records emitted
}

// Scan streams a segment's records through fn without materializing
// them: v2 sealed segments decompress only the blocks admit accepts
// (nil admit scans everything), v1 segments walk their frames with
// lines aliasing the mapped file, and unsealed segments of either
// version salvage their valid prefix before reporting ErrTruncated.
// Corruption of a sealed segment returns ErrCorrupt after emitting the
// blocks (or frames) preceding the damage. The line passed to fn is
// only valid during the call.
func (rs *ReaderSegment) Scan(d *Decoder, admit func(Index) bool, fn func(Meta, []byte)) (ScanStats, error) {
	var st ScanStats
	if rs.v2 != nil {
		region := rs.data[headerV2Size:rs.v2.DataLen]
		for i := range rs.v2.Blocks {
			b := &rs.v2.Blocks[i]
			st.Blocks++
			if admit != nil && !admit(b.Index) {
				st.BlocksPruned++
				continue
			}
			n, err := d.decodeBlock(region[b.Off:b.Off+b.CompLen], b.RawLen, b.CRC, rs.v2.Dict, fn)
			st.Records += n
			if err != nil {
				return st, fmt.Errorf("%w: block %d: %v", ErrCorrupt, i, err)
			}
		}
		return st, nil
	}
	if !rs.Sealed && len(rs.data) >= headerV2Size && string(rs.data[:4]) == segMagicV2 {
		n, streams, err := d.decodeStreams(rs.data[headerV2Size:], fn)
		st.Records, st.Blocks = n, streams
		if err != nil {
			return st, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return st, nil
	}
	end := len(rs.data)
	if rs.Sealed {
		end = rs.dataLen
	}
	st.Blocks++
	off := 0
	for off < end {
		m, line, next, err := parseFrameBytes(rs.data[:end], off)
		if err != nil {
			if rs.Sealed {
				return st, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			return st, fmt.Errorf("%w: %d bytes lost: %v", ErrTruncated, end-off, err)
		}
		fn(m, line)
		st.Records++
		off = next
	}
	return st, nil
}

// Blocks returns a sealed v2 segment's block table (nil for v1 or
// unsealed segments). Callers must not modify the entries.
func (rs *ReaderSegment) Blocks() []BlockInfo {
	if rs.v2 == nil {
		return nil
	}
	return rs.v2.Blocks
}

// FormatVersion reports the segment's on-disk format: 2 for
// block-compressed segments (sealed or unsealed), 1 for the flat
// frame format.
func (rs *ReaderSegment) FormatVersion() int {
	if rs.v2 != nil {
		return 2
	}
	if len(rs.data) >= len(segMagicV2) && string(rs.data[:len(segMagicV2)]) == segMagicV2 {
		return 2
	}
	return 1
}

// encodeSegmentV2 encodes records as one sealed v2 segment — the
// shared path for recovery rewrites, compaction, and archival, where
// the records already live in memory.
func encodeSegmentV2(recs []Rec, level, blockTarget int) ([]byte, error) {
	w := newCompWriter(level, blockTarget)
	w.openSegment()
	var x Index
	rawTotal := 0
	for _, r := range recs {
		w.lineBuf = append(w.lineBuf[:0], r.Line...)
		if err := w.stage(r.Meta, w.lineBuf); err != nil {
			return nil, err
		}
		if err := w.flushStaged(false); err != nil {
			return nil, err
		}
		w.foldMeta(r.Meta)
		x.Add(r.Meta)
		rawTotal += FrameSize(len(r.Line))
	}
	out, _, err := w.seal(x, rawTotal)
	return out, err
}

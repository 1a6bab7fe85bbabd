package daemon

// The session framing layer. A persistent control-plane session
// carries the legacy wire messages of Figure 3.6 inside length-prefixed
// frames tagged with a request id, so many requests can be in flight on
// one connection and replies can return in completion order:
//
//	size     uint32 LE   total frame length, including this word
//	kind     uint32 LE   frame kind (hello, request, reply, ping, pong)
//	request  uint64 LE   request id, matching replies to requests
//	payload  bytes       request/reply: one encoded WireMsg; hello: version
//
// A session opens with a 4-byte magic, "DPMX", before the first frame.
// Read as a legacy message size the magic is 0x584D5044 — far above
// maxWireSize — so a legacy daemon rejects it as corrupt and closes,
// which is exactly the signal the dialer needs to fall back to one-shot
// exchanges. Conversely no legacy message can begin with the magic
// bytes, so a daemon can sniff the first four bytes of a connection and
// serve either protocol. This is the same trailing-compatibility
// discipline as QueryReq's optional field 5: new capability is
// detectable by the old parser as a clean, non-destructive failure.
//
// Unknown frame kinds are skipped by both sides (forward
// compatibility); a hello payload may grow trailing data that old
// peers ignore.

import (
	"encoding/binary"
	"slices"
)

// Frame kinds.
const (
	// FrameHello opens a session in each direction; the payload is the
	// speaker's protocol version.
	FrameHello uint32 = 1
	// FrameReq carries one encoded request WireMsg; the reply returns
	// under the same request id.
	FrameReq uint32 = 2
	// FrameRep carries one encoded reply WireMsg.
	FrameRep uint32 = 3
	// FramePing and FramePong are the heartbeat: a ping sent on an idle
	// session must come back as a pong with the same id before the
	// heartbeat deadline, or the peer is suspect.
	FramePing uint32 = 4
	FramePong uint32 = 5
)

// frameMagic precedes the first frame of a session in each direction.
const frameMagic = "DPMX"

// frameHeader is the fixed frame prefix: size, kind, request id.
const frameHeader = 16

// maxFramePayload bounds one frame's payload; a frame carries at most
// one wire message.
const maxFramePayload = maxWireSize

// sessionVersion is the framing protocol version carried in hello
// frames. Parsers accept any version whose leading byte they know,
// ignoring trailing payload.
const sessionVersion = "1"

// Frame is one parsed session frame.
type Frame struct {
	Kind    uint32
	ID      uint64
	Payload []byte
}

// AppendFrame appends one encoded frame to buf and returns the
// extended slice.
func AppendFrame(buf []byte, kind uint32, id uint64, payload []byte) []byte {
	buf = appendFrameHeader(buf, kind, id, len(payload))
	return append(buf, payload...)
}

// appendMsgFrame appends one frame carrying w's encoding, writing the
// message straight into the frame in one allocation.
func appendMsgFrame(buf []byte, kind uint32, id uint64, w *WireMsg) []byte {
	size := w.size()
	buf = slices.Grow(buf, frameHeader+size)
	return w.appendTo(appendFrameHeader(buf, kind, id, size))
}

// appendFrameHeader appends the size, kind and id words of a frame
// whose payload is payloadLen bytes.
func appendFrameHeader(buf []byte, kind uint32, id uint64, payloadLen int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(frameHeader+payloadLen))
	buf = binary.LittleEndian.AppendUint32(buf, kind)
	return binary.LittleEndian.AppendUint64(buf, id)
}

// ParseFrame decodes the first frame in buf, returning the frame and
// the number of bytes it consumed. It returns ErrWireShort when buf
// holds only a prefix of a frame (read more and retry) and
// ErrWireCorrupt when buf cannot begin a valid frame (tear down the
// connection). The payload is copied, so the caller may reuse buf.
func ParseFrame(buf []byte) (Frame, int, error) {
	f, n, err := parseFrame(buf)
	f.Payload = append([]byte(nil), f.Payload...)
	return f, n, err
}

// parseFrame is ParseFrame with the payload sharing buf's memory: the
// session read loops, whose buffers only ever grow at the end, parse
// with it so a large reply is not copied again.
func parseFrame(buf []byte) (Frame, int, error) {
	if len(buf) < 4 {
		return Frame{}, 0, ErrWireShort
	}
	size := binary.LittleEndian.Uint32(buf)
	if size < frameHeader || size > frameHeader+maxFramePayload {
		return Frame{}, 0, ErrWireCorrupt
	}
	if len(buf) < int(size) {
		return Frame{}, 0, ErrWireShort
	}
	f := Frame{
		Kind:    binary.LittleEndian.Uint32(buf[4:]),
		ID:      binary.LittleEndian.Uint64(buf[8:]),
		Payload: buf[frameHeader:size:size],
	}
	return f, int(size), nil
}

// isFrameMagic reports whether buf begins with the session magic.
// Callers must have at least 4 bytes buffered.
func isFrameMagic(buf []byte) bool {
	return len(buf) >= 4 && string(buf[:4]) == frameMagic
}

// appendHello appends the magic preamble and a hello frame — the
// opening bytes of a session in either direction.
func appendHello(buf []byte) []byte {
	buf = append(buf, frameMagic...)
	return AppendFrame(buf, FrameHello, 0, []byte(sessionVersion))
}

// helloOK reports whether a hello payload announces a version this
// implementation speaks. Trailing payload beyond the version byte is
// ignored, so the hello can grow fields without breaking old peers.
func helloOK(payload []byte) bool {
	return len(payload) >= 1 && payload[0] == sessionVersion[0]
}

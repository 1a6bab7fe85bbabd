package daemon

// The daemon half of the persistent control-plane session: one
// connection carries many concurrent requests, each tagged with a
// request id, and replies return in completion order. The controller
// half lives in session.go; the frame format in frame.go.

import (
	"errors"
	"sync"
)

// serveSession serves one persistent multiplexed session. buf holds
// bytes already read past the magic preamble. Each request frame is
// executed on its own goroutine so a slow request (a query scanning a
// large store, say) never blocks the others — the pipelining that a
// one-shot exchange per connection cannot offer. The connection is
// closed by the caller only after every outstanding handler finished,
// so a late reply can never land on a recycled descriptor.
func (d *daemonState) serveSession(conn int, buf []byte) {
	var handlers sync.WaitGroup
	defer handlers.Wait()
	saidHello := false
	for {
		f, n, err := parseFrame(buf)
		if errors.Is(err, ErrWireShort) {
			data, rerr := d.p.Recv(conn, recvSize(buf, frameHeader+maxFramePayload))
			if rerr != nil {
				return // EOF or peer gone: the session is over
			}
			buf = appendRecv(buf, data)
			continue
		}
		if err != nil {
			return // corrupt framing: tear the session down
		}
		buf = buf[n:]
		switch f.Kind {
		case FrameHello:
			if !helloOK(f.Payload) {
				return // a version we do not speak
			}
			if !saidHello {
				saidHello = true
				if _, err := d.p.Send(conn, appendHello(nil)); err != nil {
					return
				}
			}
		case FramePing:
			// Heartbeat: echo the id back. Answered inline — a session
			// wedged behind a slow handler is exactly what the
			// heartbeat must NOT report as alive, but the handlers run
			// concurrently, so only a genuinely dead daemon misses one.
			if _, err := d.p.Send(conn, AppendFrame(nil, FramePong, f.ID, nil)); err != nil {
				return
			}
		case FrameReq:
			w, _, err := DecodeWire(f.Payload)
			if err != nil {
				return // corrupt payload: tear the session down
			}
			id := f.ID
			handlers.Add(1)
			d.p.Go(func() {
				defer handlers.Done()
				rep := d.handle(w)
				// One Send per frame: kernel sends are atomic, so
				// concurrent repliers cannot interleave frame bytes.
				_, _ = d.p.Send(conn, appendMsgFrame(nil, FrameRep, id, rep.Wire()))
			})
		default:
			// Unknown frame kinds are skipped for forward compatibility,
			// the discipline QueryReq field 5 established for the body
			// formats.
		}
	}
}

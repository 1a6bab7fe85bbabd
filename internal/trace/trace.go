// Package trace parses the event records collected by filter
// processes into a form the analysis routines can interpret — the
// hand-off point between the measurement system's second stage
// (filtering) and third stage (analysis).
//
// Two encodings are supported: the text log files the standard filter
// writes (one record per line, name=value pairs), and raw binary meter
// streams (for analyses that bypass a filter).
package trace

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"dpm/internal/meter"
)

// ErrTruncated reports a trace whose final record is incomplete — the
// writer (a filter, or a kernel flushing meter buffers) died
// mid-record, as a machine crash makes routine. The parse functions
// return it alongside the valid prefix of events, so analyses can
// still use everything up to the tear; errors.Is distinguishes it from
// corruption in the middle of a trace, which stays fatal.
var ErrTruncated = errors.New("trace: truncated final record")

// Event is one parsed event record.
type Event struct {
	// Seq is the record's position in the trace, which reflects
	// arrival order at the filter.
	Seq     int
	Type    meter.Type
	Event   string
	Machine int
	// CPUTime is the local machine clock (ms); ProcTime the CPU time
	// charged to the process (ms, 10 ms granularity).
	CPUTime  int64
	ProcTime int64
	Fields   map[string]uint64
	Names    map[string]meter.Name
}

// PID returns the event's process id (0 if the field was discarded).
func (e *Event) PID() int { return int(e.Fields["pid"]) }

// Sock returns the socket identifier of the event (0 if absent).
func (e *Event) Sock() uint32 { return uint32(e.Fields["sock"]) }

// MsgLength returns the message length of send/receive events.
func (e *Event) MsgLength() int { return int(e.Fields["msgLength"]) }

// Name returns a socket-name field.
func (e *Event) Name(field string) meter.Name { return e.Names[field] }

var typeByName = map[string]meter.Type{
	"SEND":        meter.EvSend,
	"RECEIVECALL": meter.EvRecvCall,
	"RECEIVE":     meter.EvRecv,
	"SOCKET":      meter.EvSocket,
	"DUP":         meter.EvDup,
	"DESTSOCKET":  meter.EvDestSocket,
	"CONNECT":     meter.EvConnect,
	"ACCEPT":      meter.EvAccept,
	"FORK":        meter.EvFork,
	"TERMPROC":    meter.EvTermProc,
}

// ParseLog parses a standard-filter text log. A log whose final
// record fails to parse yields the valid prefix and ErrTruncated; a
// bad record anywhere else is an error.
func ParseLog(data []byte) ([]Event, error) {
	var events []Event
	var l Line
	for lineNo := 1; ; lineNo++ {
		line, rest := data, []byte(nil)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, rest = data[:i], data[i+1:]
		}
		if err := l.Parse(line); err == nil {
			ev := l.Event()
			ev.Seq = len(events)
			events = append(events, ev)
		} else if !errors.Is(err, errEmptyLine) {
			if len(bytes.TrimSpace(rest)) == 0 {
				return events, fmt.Errorf("%w: line %d: %v", ErrTruncated, lineNo, err)
			}
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if rest == nil {
			return events, nil
		}
		data = rest
	}
}

// ParseOne parses a single formatted record line (no trailing
// newline). Scan paths that only test or fold records use a Line
// directly and materialize nothing.
func ParseOne(line []byte) (Event, error) {
	var l Line
	if err := l.Parse(line); err != nil {
		return Event{}, err
	}
	return l.Event(), nil
}

// ParseBinary parses a raw meter byte stream. A stream that ends in
// the middle of a record (or whose tail fails to decode) yields the
// valid prefix and ErrTruncated.
func ParseBinary(data []byte) ([]Event, error) {
	msgs, rest, err := meter.DecodeStream(data)
	events := make([]Event, 0, len(msgs))
	for i, m := range msgs {
		ev := Event{
			Seq:      i,
			Type:     m.Header.TraceType,
			Event:    m.Header.TraceType.String(),
			Machine:  int(m.Header.Machine),
			CPUTime:  int64(m.Header.CPUTime),
			ProcTime: int64(m.Header.ProcTime),
			Fields:   make(map[string]uint64),
			Names:    make(map[string]meter.Name),
		}
		for _, f := range m.Body.Fields() {
			if f.IsName {
				ev.Names[f.Name] = f.Addr
				if f.Addr.Family() == meter.AFInet {
					host, _ := f.Addr.Inet()
					ev.Fields[f.Name] = uint64(host)
				}
			} else {
				ev.Fields[f.Name] = uint64(f.Value)
			}
		}
		events = append(events, ev)
	}
	if err != nil {
		return events, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if len(rest) != 0 {
		return events, fmt.Errorf("%w: %d trailing bytes in meter stream", ErrTruncated, len(rest))
	}
	return events, nil
}

// Format renders an event in the standard filter's log line format, so
// traces can be round-tripped and merged.
func (e *Event) Format() string {
	var b strings.Builder
	b.WriteString(e.Event)
	fmt.Fprintf(&b, " machine=%d cpuTime=%d procTime=%d", e.Machine, e.CPUTime, e.ProcTime)
	// Emit fields in the canonical per-type order when known.
	emitted := make(map[string]bool)
	for _, key := range canonicalOrder[e.Type] {
		if n, ok := e.Names[key]; ok {
			fmt.Fprintf(&b, " %s=%s", key, n.String())
			emitted[key] = true
		} else if v, ok := e.Fields[key]; ok {
			fmt.Fprintf(&b, " %s=%d", key, v)
			emitted[key] = true
		}
	}
	for key, v := range e.Fields {
		if !emitted[key] {
			if _, isName := e.Names[key]; !isName {
				fmt.Fprintf(&b, " %s=%d", key, v)
			}
		}
	}
	for key, n := range e.Names {
		if !emitted[key] {
			fmt.Fprintf(&b, " %s=%s", key, n.String())
		}
	}
	return b.String()
}

// Merge combines several traces (e.g. the logs of different filters
// collecting parts of one computation) into one, ordered by the
// machine-clock timestamps and re-sequenced. Within one machine the
// clock is monotonic so per-process program order is preserved; across
// machines the order is only as good as the clocks' rough
// correspondence (paper section 4.1) — the analysis routines rely on
// message causality, not on this order, for cross-machine claims.
func Merge(traces ...[]Event) []Event {
	var out []Event
	for _, t := range traces {
		out = append(out, t...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].CPUTime < out[j].CPUTime })
	for i := range out {
		out[i].Seq = i
	}
	return out
}

var canonicalOrder = map[meter.Type][]string{
	meter.EvSend:       {"pid", "pc", "sock", "msgLength", "destNameLen", "destName"},
	meter.EvRecvCall:   {"pid", "pc", "sock"},
	meter.EvRecv:       {"pid", "pc", "sock", "msgLength", "sourceNameLen", "sourceName"},
	meter.EvSocket:     {"pid", "pc", "sock", "domain", "type", "protocol"},
	meter.EvDup:        {"pid", "pc", "sock", "newSock"},
	meter.EvDestSocket: {"pid", "pc", "sock"},
	meter.EvConnect:    {"pid", "pc", "sock", "sockNameLen", "peerNameLen", "sockName", "peerName"},
	meter.EvAccept:     {"pid", "pc", "sock", "newSock", "sockNameLen", "peerNameLen", "sockName", "peerName"},
	meter.EvFork:       {"pid", "pc", "newPid"},
	meter.EvTermProc:   {"pid", "pc", "status"},
}

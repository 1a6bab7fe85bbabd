package trace

import (
	"fmt"
	"strconv"
	"strings"

	"dpm/internal/meter"
)

// The map-building record parser the Line scanner replaced, frozen
// verbatim (renamed) as the differential oracle for FuzzParseOne. It
// is test-only: the scanner must accept and reject exactly what these
// functions do and return the same events.

// oracleParseLog parses a standard-filter text log. A log whose final
// record fails to parse yields the valid prefix and ErrTruncated; a
// bad record anywhere else is an error.
func oracleParseLog(data []byte) ([]Event, error) {
	lines := strings.Split(string(data), "\n")
	lastNonEmpty := -1
	for i, line := range lines {
		if strings.TrimSpace(line) != "" {
			lastNonEmpty = i
		}
	}
	var events []Event
	for lineNo, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		ev, err := oracleParseLine(line)
		if err != nil {
			if lineNo == lastNonEmpty {
				return events, fmt.Errorf("%w: line %d: %v", ErrTruncated, lineNo+1, err)
			}
			return nil, fmt.Errorf("trace: line %d: %w", lineNo+1, err)
		}
		ev.Seq = len(events)
		events = append(events, ev)
	}
	return events, nil
}

// oracleParseOne parses a single formatted record line (no trailing
// newline), the per-record entry point for scan paths that stream
// lines out of the store instead of splitting a whole log.
func oracleParseOne(line []byte) (Event, error) {
	s := strings.TrimSpace(string(line))
	if s == "" {
		return Event{}, fmt.Errorf("trace: empty record line")
	}
	return oracleParseLine(s)
}

func oracleParseLine(line string) (Event, error) {
	toks := strings.Fields(line)
	ev := Event{
		Event:  toks[0],
		Fields: make(map[string]uint64),
		Names:  make(map[string]meter.Name),
	}
	typ, ok := typeByName[toks[0]]
	if !ok {
		return ev, fmt.Errorf("unknown event %q", toks[0])
	}
	ev.Type = typ
	for _, tok := range toks[1:] {
		eq := strings.IndexByte(tok, '=')
		if eq <= 0 {
			return ev, fmt.Errorf("bad field %q", tok)
		}
		key, val := tok[:eq], tok[eq+1:]
		switch key {
		case "machine":
			v, err := strconv.Atoi(val)
			if err != nil {
				return ev, fmt.Errorf("bad machine %q", val)
			}
			ev.Machine = v
		case "cpuTime":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return ev, fmt.Errorf("bad cpuTime %q", val)
			}
			ev.CPUTime = v
		case "procTime":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return ev, fmt.Errorf("bad procTime %q", val)
			}
			ev.ProcTime = v
		default:
			if n, err := meter.ParseName(val); err == nil && oracleLooksLikeName(val) {
				ev.Names[key] = n
				if n.Family() == meter.AFInet {
					host, _ := n.Inet()
					ev.Fields[key] = uint64(host)
				}
				continue
			}
			v, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return ev, fmt.Errorf("bad value for %s: %q", key, val)
			}
			ev.Fields[key] = v
		}
	}
	return ev, nil
}

func oracleLooksLikeName(val string) bool {
	return val == "-" || strings.HasPrefix(val, "inet:") ||
		strings.HasPrefix(val, "unix:") || strings.HasPrefix(val, "pair:")
}

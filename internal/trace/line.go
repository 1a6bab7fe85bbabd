package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"

	"dpm/internal/meter"
)

// errEmptyLine reports a record line with no tokens; ParseLog skips
// such lines, ParseOne rejects them.
var errEmptyLine = errors.New("trace: empty record line")

// Line is a validating, zero-allocation scanner for one formatted
// record line. Parse tokenizes the line in place and checks every
// token, accepting exactly the lines ParseOne accepts; Field and
// NameField then read the scanned values without building maps, so
// selection rules and aggregate keys evaluate over the raw record, and
// Event materializes the record only when a caller needs one.
//
// Body field keys alias the parsed buffer: a Line is valid until that
// buffer changes or Parse is called again. A Line is reused across
// records; its field slice grows to the widest record and stays.
type Line struct {
	Type     meter.Type
	Machine  int
	CPUTime  int64
	ProcTime int64

	fields []lineField // body fields in line order, duplicates kept
}

// lineField is one body field. A socket name sets isName; an AF_INET
// name also reads as its host number, so it sets hasNum too.
type lineField struct {
	key    []byte
	num    uint64
	name   meter.Name
	hasNum bool
	isName bool
}

// Parse scans one record line (no trailing newline). Whitespace is
// Unicode whitespace, as in strings.Fields. On error the Line's
// contents are unspecified.
func (l *Line) Parse(b []byte) error {
	*l = Line{fields: l.fields[:0]}
	tok, _, rest := nextToken(b)
	if len(tok) == 0 {
		return errEmptyLine
	}
	typ, ok := typeByName[string(tok)]
	if !ok {
		return fmt.Errorf("unknown event %q", tok)
	}
	l.Type = typ
	for {
		key, val, num, n := plainField(rest)
		plain := n > 0
		if plain {
			rest = rest[n:]
		} else {
			tok, eq, r := nextToken(rest)
			if len(tok) == 0 {
				return nil
			}
			if eq <= 0 {
				return fmt.Errorf("bad field %q", tok)
			}
			key, val, rest = tok[:eq], tok[eq+1:], r
		}
		switch string(key) {
		case "machine":
			v, ok := headerInt(val, num, plain)
			if !ok {
				return fmt.Errorf("bad machine %q", val)
			}
			l.Machine = int(v)
		case "cpuTime":
			v, ok := headerInt(val, num, plain)
			if !ok {
				return fmt.Errorf("bad cpuTime %q", val)
			}
			l.CPUTime = v
		case "procTime":
			v, ok := headerInt(val, num, plain)
			if !ok {
				return fmt.Errorf("bad procTime %q", val)
			}
			l.ProcTime = v
		default:
			l.fields = append(l.fields, lineField{key: key, num: num, hasNum: plain})
			if plain {
				continue
			}
			f := &l.fields[len(l.fields)-1]
			if looksLikeName(val) {
				f.name, f.isName = parseName(val)
			}
			if f.isName {
				if f.name.Family() == meter.AFInet {
					host, _ := f.name.Inet()
					f.num, f.hasNum = uint64(host), true
				}
			} else if v, err := strconv.ParseUint(string(val), 0, 64); err == nil {
				f.num, f.hasNum = v, true
			} else {
				return fmt.Errorf("bad value for %s: %q", key, val)
			}
		}
	}
}

// plainField recognizes the field form filters write, " key=digits"
// in plain ASCII ending the line or followed by a space, and returns
// the value and the length of the field; n is 0 for any other form,
// which the general tokenizer then handles. Values are at most 18
// digits without a leading zero, so every reading of them — base-0
// unsigned or signed decimal — agrees with the plain decimal.
func plainField(b []byte) (key, val []byte, num uint64, n int) {
	if len(b) < 4 || b[0] != ' ' {
		return nil, nil, 0, 0
	}
	eq := 1
	for eq < len(b) && byteClass[b[eq]] == classOther {
		eq++
	}
	if eq == 1 || eq >= len(b)-1 || b[eq] != '=' {
		return nil, nil, 0, 0
	}
	i := eq + 1
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		num = num*10 + uint64(c)
	}
	digits := i - eq - 1
	if digits == 0 || digits > 18 || digits > 1 && b[eq+1] == '0' || i < len(b) && b[i] != ' ' {
		return nil, nil, 0, 0
	}
	return b[1:eq], b[eq+1 : i], num, i
}

// headerInt reads a header value, as strconv.Atoi does for a 64-bit
// int, reusing plainField's decoding.
func headerInt(val []byte, num uint64, plain bool) (int64, bool) {
	if plain {
		return int64(num), true
	}
	v, err := strconv.ParseInt(string(val), 10, 64)
	return v, err == nil
}

// Field implements filter.FieldSource. Header fields resolve before
// body fields, so "type" is the trace type even on a SOCKET record
// that carries a body field of that name; the "size" header field is
// not carried in log lines and so cannot be read. Of duplicate body
// keys the last one wins.
func (l *Line) Field(name string) (uint64, bool) {
	switch name {
	case "machine":
		return uint64(l.Machine), true
	case "cpuTime":
		return uint64(l.CPUTime), true
	case "procTime":
		return uint64(l.ProcTime), true
	case "type", "traceType":
		return uint64(l.Type), true
	}
	for i := len(l.fields) - 1; i >= 0; i-- {
		if f := &l.fields[i]; f.hasNum && string(f.key) == name {
			return f.num, true
		}
	}
	return 0, false
}

// NameField implements filter.FieldSource: the last socket name given
// for the field.
func (l *Line) NameField(name string) (meter.Name, bool) {
	for i := len(l.fields) - 1; i >= 0; i-- {
		if f := &l.fields[i]; f.isName && string(f.key) == name {
			return f.name, true
		}
	}
	return meter.Name{}, false
}

// Event materializes the scanned record (Seq 0).
func (l *Line) Event() Event {
	ev := Event{
		Type:     l.Type,
		Event:    l.Type.String(),
		Machine:  l.Machine,
		CPUTime:  l.CPUTime,
		ProcTime: l.ProcTime,
		Fields:   make(map[string]uint64, len(l.fields)),
		Names:    make(map[string]meter.Name),
	}
	for i := range l.fields {
		f := &l.fields[i]
		key, ok := knownKeys[string(f.key)]
		if !ok {
			key = string(f.key)
		}
		if f.hasNum {
			ev.Fields[key] = f.num
		}
		if f.isName {
			ev.Names[key] = f.name
		}
	}
	return ev
}

// knownKeys interns the body field names the standard descriptions
// produce, so materializing an event allocates no key strings.
var knownKeys = func() map[string]string {
	m := make(map[string]string)
	for _, keys := range canonicalOrder {
		for _, k := range keys {
			m[k] = k
		}
	}
	return m
}()

// nextToken returns the first whitespace-delimited token of b, the
// offset of the token's first '=' (-1 if none) and the bytes after the
// token; an empty token means b holds no more tokens. Whitespace is
// Unicode whitespace and invalid UTF-8 is one non-space byte, as in
// strings.Fields.
func nextToken(b []byte) (tok []byte, eq int, rest []byte) {
	i := 0
	for i < len(b) {
		if c := byteClass[b[i]]; c == classSpace {
			i++
		} else if c != classRune || !isSpaceRune(b[i:]) {
			break
		} else {
			_, n := utf8.DecodeRune(b[i:])
			i += n
		}
	}
	start, eq := i, -1
	for i < len(b) {
		switch byteClass[b[i]] {
		case classOther:
			i++
		case classEq:
			if eq < 0 {
				eq = i - start
			}
			i++
		case classSpace:
			return b[start:i], eq, b[i:]
		case classRune:
			if isSpaceRune(b[i:]) {
				return b[start:i], eq, b[i:]
			}
			_, n := utf8.DecodeRune(b[i:])
			i += n
		}
	}
	return b[start:i], eq, b[i:]
}

// Byte classes for the tokenizer: an ASCII space, '=', any other ASCII
// byte, or the first byte of a multi-byte (or invalid) sequence, which
// needs rune decoding.
const (
	classOther = iota
	classSpace
	classEq
	classRune
)

var byteClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = classRune
	}
	for _, c := range "\t\n\v\f\r " {
		t[c] = classSpace
	}
	t['='] = classEq
	return t
}()

func isSpaceRune(b []byte) bool {
	r, _ := utf8.DecodeRune(b)
	return unicode.IsSpace(r)
}

func looksLikeName(val []byte) bool {
	return string(val) == "-" || bytes.HasPrefix(val, []byte("inet:")) ||
		bytes.HasPrefix(val, []byte("unix:")) || bytes.HasPrefix(val, []byte("pair:"))
}

// parseName decodes a socket-name value with meter.ParseName's
// semantics; the common forms ("-" and plain inet:host:port) decode
// without allocating.
func parseName(val []byte) (meter.Name, bool) {
	if string(val) == "-" {
		return meter.Name{}, true
	}
	if rest, ok := bytes.CutPrefix(val, []byte("inet:")); ok {
		if i := bytes.IndexByte(rest, ':'); i > 0 && i <= 10 && len(rest)-i-1 <= 5 {
			host, hok := decimal(rest[:i])
			port, pok := decimal(rest[i+1:])
			if hok && pok && host <= math.MaxUint32 && port <= math.MaxUint16 {
				return meter.InetName(uint32(host), uint16(port)), true
			}
		}
	}
	n, err := meter.ParseName(string(val))
	return n, err == nil
}

// decimal parses 1 to 19 plain decimal digits; longer input could
// overflow and is refused.
func decimal(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c -= '0'; c > 9 {
			return 0, false
		}
		v = v*10 + uint64(c)
	}
	return v, true
}

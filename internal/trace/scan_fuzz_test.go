package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// scanSeeds are the hand-written edge cases of the record-line
// grammar: every name form, base-prefixed and underscored numbers,
// duplicate keys, missing header fields, a body field named like a
// header alias, and non-ASCII whitespace.
var scanSeeds = []string{
	"SEND machine=1 cpuTime=1 procTime=0 pid=1 pc=4 sock=1 msgLength=1 destNameLen=0 destName=-",
	"RECEIVE machine=2 cpuTime=131 procTime=0 pid=9 sourceName=inet:1:1024",
	"ACCEPT machine=2 cpuTime=90 procTime=0 sockName=unix:/tmp/s peerName=pair:pair#7",
	"CONNECT machine=1 cpuTime=6 sockName=unix: peerName=pair:",
	"CONNECT machine=1 cpuTime=6 sockName=inet: peerName=inet:4294967295:65535",
	"CONNECT machine=1 sockName=inet:4294967296:1 peerName=inet:1:65536",
	"CONNECT machine=1 sockName=inet:01:002 peerName=inet:1:2trailing",
	"CONNECT machine=1 sockName=inet:0x1:2 peerName=inet:00000000001:1",
	"CONNECT machine=1 sockName=inet:+1:2 peerName=inet:1:-2",
	"CONNECT machine=1 sockName=unix:a\x00b peerName=unix:averyveryverylongpath",
	"SEND machine=1 pid=0x1f pc=0o17 sock=017 msgLength=1_000 newSock=0b101 status=0x_1",
	"SEND machine=1 pid=1__0 pc=0x sock=18446744073709551615 msgLength=18446744073709551616",
	"SEND machine=1 pid=00 pc=0 sock=1234567890123456789 msgLength=12345678901234567890",
	"SEND machine=+1 cpuTime=-5 procTime=+0 pid=1",
	"SEND machine=- cpuTime=1",
	"SEND machine=1_0",
	"SEND cpuTime=9223372036854775807 procTime=-9223372036854775808",
	"SEND cpuTime=9223372036854775808",
	"SEND machine=0x10",
	"SEND machine=1 machine=2 pid=3 pid=4 destName=inet:1:2 destName=5",
	"SEND destName=5 destName=unix:a destName=inet:3:4 destName=-",
	"SEND pid=1 pid=unix:x",
	"SOCKET machine=3 cpuTime=59 procTime=0 pid=3 pc=4 sock=14 domain=2 type=1 protocol=0",
	"SOCKET traceType=7 size=9 type=unix:x",
	"FORK",
	"TERMPROC pid=1",
	"SEND =1",
	"SEND pid",
	"SEND pid=",
	"SEND pid==1",
	"SEND a=b=c",
	"BOGUS machine=1",
	"send machine=1",
	"",
	"   \t ",
	"\tSEND\tmachine=1\tpid=2\t",
	"\u00a0SEND\u2003machine=1\u3000pid=2\u0085",
	"SEND\u200bmachine=1",
	"SEND machine=1 pid=2\xff",
	"SEND machine=1 \xc2 pid=2",
	"SEND mach\u00a0ine=1",
	"SEND machine=1\r",
	"SEND  machine=1  pid=2 ",
	"SEND machine=1\tpid=2 sock=3\t",
	"SEND pid=0 sock=00 pc=0 newPid=01 status=0",
	"SEND cpuTime=123456789012345678 procTime=1234567890123456789 pid=1234567890123456789",
	"SEND cpuTime=9999999999999999999 pid=99999999999999999999",
	"SEND pid= sock=1",
	"SEND =5 pid=1",
	"SEND pid=5=6 sock=7",
	"SEND pid=5\u00e9 sock=\u00e95",
	"SEND pid=5\u00a0sock=6",
	"SEND machine=1\nRECEIVE machine=2\n\n  \nFORK pid=1\n",
	"SEND machine=1\nBOGUS\nFORK pid=1",
	"SEND machine=1\nFORK pid=1\nSEND machine=x\n \n\t\n",
	"SEND machine=1\nFORK pid=1\nSEND machine=x\n\u00a0\n",
}

// FuzzParseOne differentially tests the Line scanner against the
// frozen map-building parser: the same error or no error (with the
// same message), a reflect.DeepEqual Event on success, and field
// resolution equal to a lookup in that event. Inputs with newlines
// also pit ParseLog against the frozen log splitter.
func FuzzParseOne(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "analysis", "testdata", "*.trace"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no trace testdata: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			f.Add(string(line))
		}
	}
	f.Add(sampleLog)
	for _, s := range scanSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, gerr := ParseOne([]byte(text))
		want, werr := oracleParseOne([]byte(text))
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("ParseOne(%q) error %v, oracle %v", text, gerr, werr)
		}
		if gerr == nil {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ParseOne(%q)\n got %+v\nwant %+v", text, got, want)
			}
			var l Line
			if err := l.Parse([]byte(text)); err != nil {
				t.Fatalf("Line.Parse(%q): %v", text, err)
			}
			checkResolution(t, &l, &want)
		}

		gotLog, gerr := ParseLog([]byte(text))
		wantLog, werr := oracleParseLog([]byte(text))
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("ParseLog(%q) error %v, oracle %v", text, gerr, werr)
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			t.Fatalf("ParseLog(%q)\n got %+v\nwant %+v", text, gotLog, wantLog)
		}
	})
}

// checkResolution compares the scanner's FieldSource view with the
// resolution rule-evaluation used on a materialized event: header
// fields first (type and traceType meaning the trace type), then the
// body maps.
func checkResolution(t *testing.T, l *Line, ev *Event) {
	t.Helper()
	names := []string{"machine", "cpuTime", "procTime", "type", "traceType", "size", "absent"}
	for k := range ev.Fields {
		names = append(names, k)
	}
	for k := range ev.Names {
		names = append(names, k)
	}
	for _, name := range names {
		var want uint64
		var wok bool
		switch name {
		case "machine":
			want, wok = uint64(ev.Machine), true
		case "cpuTime":
			want, wok = uint64(ev.CPUTime), true
		case "procTime":
			want, wok = uint64(ev.ProcTime), true
		case "type", "traceType":
			want, wok = uint64(ev.Type), true
		default:
			want, wok = ev.Fields[name]
		}
		if got, ok := l.Field(name); got != want || ok != wok {
			t.Fatalf("Field(%q) = %d,%v, want %d,%v", name, got, ok, want, wok)
		}
		wantName, wok := ev.Names[name]
		if got, ok := l.NameField(name); got != wantName || ok != wok {
			t.Fatalf("NameField(%q) = %v,%v, want %v,%v", name, got, ok, wantName, wok)
		}
	}
}

package trace

import (
	"errors"
	"strings"
	"testing"

	"dpm/internal/meter"
)

const sampleLog = `SEND machine=1 cpuTime=120 procTime=10 pid=7 pc=4 sock=260 msgLength=512 destNameLen=16 destName=inet:2:6100
RECEIVECALL machine=2 cpuTime=130 procTime=0 pid=9 pc=8 sock=300
RECEIVE machine=2 cpuTime=131 procTime=0 pid=9 pc=12 sock=300 msgLength=512 sourceNameLen=16 sourceName=inet:1:1024
ACCEPT machine=2 cpuTime=90 procTime=0 pid=9 pc=4 sock=290 newSock=300 sockNameLen=16 peerNameLen=0 sockName=unix:/tmp/s peerName=-
TERMPROC machine=1 cpuTime=200 procTime=20 pid=7 pc=16 status=0
`

func TestParseLog(t *testing.T) {
	events, err := ParseLog([]byte(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("parsed %d events", len(events))
	}
	e := events[0]
	if e.Type != meter.EvSend || e.Machine != 1 || e.CPUTime != 120 || e.ProcTime != 10 {
		t.Fatalf("send header = %+v", e)
	}
	if e.PID() != 7 || e.Sock() != 260 || e.MsgLength() != 512 {
		t.Fatalf("send fields = %+v", e.Fields)
	}
	want := meter.InetName(2, 6100)
	if e.Name("destName") != want {
		t.Fatalf("destName = %v", e.Name("destName"))
	}
	if events[3].Name("peerName") != (meter.Name{}) {
		t.Fatalf("dash name should be zero, got %v", events[3].Name("peerName"))
	}
	if events[4].Type != meter.EvTermProc || events[4].Fields["status"] != 0 {
		t.Fatalf("termproc = %+v", events[4])
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("Seq of event %d = %d", i, e.Seq)
		}
	}
}

func TestParseLogErrors(t *testing.T) {
	cases := []string{
		"BOGUS machine=1\n",
		"SEND machine=x\n",
		"SEND machine=1 noequals\n",
		"SEND machine=1 pid=notanumber\n",
	}
	for _, c := range cases {
		if _, err := ParseLog([]byte(c)); err == nil {
			t.Errorf("ParseLog(%q) succeeded", c)
		}
	}
}

func TestParseLogSkipsBlankLines(t *testing.T) {
	events, err := ParseLog([]byte("\n\nFORK machine=1 cpuTime=0 procTime=0 pid=1 pc=4 newPid=2\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != meter.EvFork {
		t.Fatalf("events = %+v", events)
	}
}

func TestParseBinary(t *testing.T) {
	var stream []byte
	bodies := []meter.Body{
		&meter.Send{PID: 1, PC: 2, Sock: 3, MsgLength: 64, DestNameLen: 16, DestName: meter.InetName(9, 10)},
		&meter.Fork{PID: 1, PC: 4, NewPID: 2},
	}
	for _, b := range bodies {
		m := meter.Msg{Header: meter.Header{Machine: 4, CPUTime: 55, ProcTime: 10}, Body: b}
		stream = m.AppendEncode(stream)
	}
	events, err := ParseBinary(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Machine != 4 || events[0].MsgLength() != 64 {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[0].Name("destName") != meter.InetName(9, 10) {
		t.Fatalf("destName = %v", events[0].Name("destName"))
	}
	if events[1].Fields["newPid"] != 2 {
		t.Fatalf("newPid = %d", events[1].Fields["newPid"])
	}
}

func TestParseBinaryTrailing(t *testing.T) {
	m := meter.Msg{Header: meter.Header{}, Body: &meter.Fork{}}
	stream := append(m.Encode(), 0x01, 0x02)
	if _, err := ParseBinary(stream); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	events, err := ParseLog([]byte(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	var relogged strings.Builder
	for i := range events {
		relogged.WriteString(events[i].Format())
		relogged.WriteByte('\n')
	}
	again, err := ParseLog([]byte(relogged.String()))
	if err != nil {
		t.Fatalf("re-parse: %v\nlog:\n%s", err, relogged.String())
	}
	if len(again) != len(events) {
		t.Fatalf("round trip changed count: %d != %d", len(again), len(events))
	}
	for i := range events {
		a, b := events[i], again[i]
		if a.Type != b.Type || a.Machine != b.Machine || a.CPUTime != b.CPUTime || a.ProcTime != b.ProcTime {
			t.Fatalf("event %d header changed: %+v != %+v", i, a, b)
		}
		for k, v := range a.Fields {
			if b.Fields[k] != v {
				t.Fatalf("event %d field %s: %d != %d", i, k, v, b.Fields[k])
			}
		}
		for k, v := range a.Names {
			if b.Names[k] != v {
				t.Fatalf("event %d name %s: %v != %v", i, k, v, b.Names[k])
			}
		}
	}
}

func TestBinaryAndLogAgree(t *testing.T) {
	// The same message parsed from binary and from its formatted log
	// line must agree field for field.
	m := meter.Msg{
		Header: meter.Header{Machine: 3, CPUTime: 77, ProcTime: 20},
		Body:   &meter.Accept{PID: 5, PC: 6, Sock: 7, NewSock: 8, SockNameLen: 16, PeerNameLen: 16, SockName: meter.UnixName("/tmp/a"), PeerName: meter.InetName(1, 2)},
	}
	bin, err := ParseBinary(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	logEvents, err := ParseLog([]byte(bin[0].Format() + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := bin[0], logEvents[0]
	if a.Type != b.Type || a.Machine != b.Machine {
		t.Fatalf("headers differ: %+v vs %+v", a, b)
	}
	for k, v := range a.Names {
		if b.Names[k] != v {
			t.Fatalf("name %s differs: %v vs %v", k, v, b.Names[k])
		}
	}
}

func TestParseLogTruncatedTail(t *testing.T) {
	// A crash tears the final record mid-write: the valid prefix comes
	// back along with ErrTruncated.
	torn := sampleLog + "SEND machine=1 cpuTi"
	events, err := ParseLog([]byte(torn))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if len(events) != 5 {
		t.Fatalf("prefix has %d events, want 5", len(events))
	}
	if events[4].Type != meter.EvTermProc {
		t.Fatalf("last prefix event = %+v", events[4])
	}
}

func TestParseLogMidCorruptionStillFatal(t *testing.T) {
	// A bad record with valid records after it is corruption, not
	// truncation: no prefix is returned.
	lines := strings.Split(strings.TrimSpace(sampleLog), "\n")
	lines[2] = "GARBAGE this is not a record"
	events, err := ParseLog([]byte(strings.Join(lines, "\n")))
	if err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want a non-truncation error", err)
	}
	if events != nil {
		t.Fatalf("events = %v, want nil", events)
	}
}

func TestParseBinaryTruncatedTail(t *testing.T) {
	m1 := meter.Msg{Header: meter.Header{Machine: 1}, Body: &meter.Fork{PID: 1, PC: 4, NewPID: 2}}
	m2 := meter.Msg{Header: meter.Header{Machine: 1}, Body: &meter.TermProc{PID: 2, PC: 8}}
	stream := m2.AppendEncode(m1.Encode())
	torn := stream[:len(stream)-5]
	events, err := ParseBinary(torn)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if len(events) != 1 || events[0].Type != meter.EvFork {
		t.Fatalf("prefix = %+v, want the fork record", events)
	}
}

// BenchmarkLineParse measures the record-line scanner on the common
// SEND shape, the per-record cost of every query and aggregate scan.
func BenchmarkLineParse(b *testing.B) {
	line := []byte("SEND machine=3 cpuTime=81234 procTime=8123 pid=103 pc=4 sock=3 msgLength=64 destNameLen=16 destName=inet:4:7004")
	var l Line
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Parse(line); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLineParseZeroAlloc gates the scanner itself: once its field
// slice is warm, scanning a record and resolving its fields — header,
// body, inet and "-" names — touches no heap.
func TestLineParseZeroAlloc(t *testing.T) {
	lines := [][]byte{
		[]byte("SEND machine=3 cpuTime=81234 procTime=8123 pid=103 pc=4 sock=3 msgLength=64 destNameLen=16 destName=inet:4:7004"),
		[]byte("ACCEPT machine=2 cpuTime=90 procTime=0 pid=9 pc=4 sock=290 newSock=300 sockNameLen=16 peerNameLen=0 sockName=inet:2:7000 peerName=-"),
		[]byte("SOCKET machine=3 cpuTime=59 procTime=0 pid=3 pc=0x4 sock=14 domain=2 type=1 protocol=0"),
	}
	var l Line
	if n := testing.AllocsPerRun(100, func() {
		for _, b := range lines {
			if err := l.Parse(b); err != nil {
				t.Fatal(err)
			}
			for _, f := range []string{"machine", "type", "pid", "destName", "sockName", "absent"} {
				l.Field(f)
				l.NameField(f)
			}
		}
	}); n != 0 {
		t.Fatalf("scanning %d lines allocates %v, want 0", len(lines), n)
	}
}

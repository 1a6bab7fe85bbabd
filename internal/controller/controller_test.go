package controller

import (
	"bytes"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dpm/internal/daemon"
	"dpm/internal/filter"
	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
)

const testUID = 100

// syncWriter is a threadsafe output buffer (controller output and
// daemon notifications interleave).
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// newSystem builds the Appendix B world: machines red, green, blue and
// yellow on one network, meterdaemons everywhere, the standard filter
// files installed, and the A/B example computation registered. The
// controller runs on yellow, as in Figure 4.3.
func newSystem(t testing.TB) (*kernel.Cluster, *Controller, *syncWriter) {
	t.Helper()
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	for _, name := range []string{"red", "green", "blue", "yellow"} {
		m, err := c.AddMachine(name, nil, "ether0")
		if err != nil {
			t.Fatal(err)
		}
		m.AddAccount(testUID, "user")
		if _, err := daemon.Install(c, m); err != nil {
			t.Fatal(err)
		}
		if err := filter.Install(c, m, 0); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(c.Shutdown)
	registerAB(t, c)

	out := &syncWriter{}
	ctl, err := New(c, "yellow", testUID, out)
	if err != nil {
		t.Fatal(err)
	}
	return c, ctl, out
}

// registerAB installs the two-process computation of the Appendix B
// session: B is a datagram server on a well-known port; A sends it a
// message and waits for the echo.
func registerAB(t testing.TB, c *kernel.Cluster) {
	t.Helper()
	const portB = 6100
	c.RegisterProgram("progB", func(p *kernel.Process) int {
		rfd, err := p.Socket(meter.AFInet, kernel.SockDgram)
		if err != nil {
			return 1
		}
		if err := p.BindPort(rfd, portB); err != nil {
			return 1
		}
		data, src, err := p.RecvFrom(rfd, 100)
		if err != nil {
			return 1
		}
		if _, err := p.SendTo(rfd, data, src); err != nil {
			return 1
		}
		return 0
	})
	c.RegisterProgram("progA", func(p *kernel.Process) int {
		host, _, err := p.Machine().Cluster().ResolveFrom(p.Machine(), "green")
		if err != nil {
			return 1
		}
		sfd, err := p.Socket(meter.AFInet, kernel.SockDgram)
		if err != nil {
			return 1
		}
		if err := p.BindPort(sfd, 0); err != nil {
			return 1
		}
		dest := meter.InetName(host, portB)
		// B may not have bound yet (A and B start concurrently), and
		// datagrams to an unbound port vanish; retry until the echo
		// arrives.
		for i := 0; i < 1000; i++ {
			if _, err := p.SendTo(sfd, []byte("work"), dest); err != nil {
				return 1
			}
			s, err := p.SocketOf(sfd)
			if err != nil {
				return 1
			}
			deadline := time.Now().Add(5 * time.Millisecond)
			for !s.Readable() && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			if s.Readable() {
				if _, err := p.Recv(sfd, 100); err != nil {
					return 1
				}
				return 0
			}
		}
		return 1
	})
	for _, mn := range []string{"red", "green"} {
		m, err := c.Machine(mn)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.FS().CreateExecutable("/bin/A", testUID, "progA"); err != nil {
			t.Fatal(err)
		}
		if err := m.FS().CreateExecutable("/bin/B", testUID, "progB"); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls until the predicate holds.
func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobDone reports whether every process of the job is killed.
func jobDone(ctl *Controller, job string) func() bool {
	return func() bool {
		for _, j := range ctl.Jobs() {
			if j.Name != job {
				continue
			}
			for _, p := range j.Procs {
				if p.State != StateKilled {
					return false
				}
			}
			return true
		}
		return false
	}
}

// TestAppendixBSession replays the scripted example session of
// Appendix B and checks the controller's responses against the
// transcript (process identifiers differ; message shapes must match).
func TestAppendixBSession(t *testing.T) {
	_, ctl, out := newSystem(t)

	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo red A")
	ctl.Exec("addprocess foo green B")
	ctl.Exec("setflags foo send receive fork accept connect")
	ctl.Exec("startjob foo")
	waitFor(t, "job foo to complete", jobDone(ctl, "foo"))
	ctl.Exec("rmjob foo")
	// The filter logs asynchronously; retry getlog until the trace has
	// the events (the paper's user simply waits for the computation to
	// finish before retrieving the log).
	waitFor(t, "trace file", func() bool {
		ctl.Exec("getlog f1 trace")
		data, err := ctl.machine.FS().Read("/usr/trace", testUID)
		return err == nil && strings.Contains(string(data), "RECEIVE")
	})
	if !ctl.Exec("bye") {
		// bye returns false when the controller exits: expected.
	} else {
		t.Fatal("bye did not exit the controller")
	}

	text := out.String()
	patterns := []string{
		`filter 'f1' \.\.\. created: identifier = \d+`,
		`process 'A' \.\.\. created: identifier = \d+`,
		`process 'B' \.\.\. created: identifier = \d+`,
		`new job flags = fork send receive accept connect`,
		`Process 'A' : Flags set`,
		`Process 'B' : Flags set`,
		`'A' started\.`,
		`'B' started\.`,
		`DONE: process A in job 'foo' terminated: reason: normal`,
		`DONE: process B in job 'foo' terminated: reason: normal`,
		`'A' removed`,
		`'B' removed`,
	}
	for _, pat := range patterns {
		if !regexp.MustCompile(pat).MatchString(text) {
			t.Errorf("transcript lacks %q:\n%s", pat, text)
		}
	}
	if !ctl.Closed() {
		t.Fatal("controller not closed after bye")
	}
	// getlog wrote the trace file on the controller's machine.
	m, _ := ctlMachine(ctl)
	data, err := m.FS().Read("/usr/trace", testUID)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	trace := string(data)
	for _, ev := range []string{"SEND", "RECEIVE"} {
		if !strings.Contains(trace, ev+" ") {
			t.Errorf("trace lacks %s events:\n%s", ev, trace)
		}
	}
	// The flags did not include socket creation, so no SOCKET records
	// may appear — selection is the filter's job.
	if strings.Contains(trace, "SOCKET ") {
		t.Errorf("unflagged SOCKET events in trace:\n%s", trace)
	}
}

func ctlMachine(c *Controller) (*kernel.Machine, error) { return c.machine, nil }

func TestNewJobRequiresFilter(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("newjob foo")
	if !strings.Contains(out.String(), "no filter") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestFilterListAndDuplicate(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("filter f1 green")
	if !strings.Contains(out.String(), "filter 'f1' already exists") {
		t.Fatalf("output = %q", out.String())
	}
	ctl.Exec("filter f2")
	ctl.Exec("filter")
	text := out.String()
	if !strings.Contains(text, "'f1' on blue") || !strings.Contains(text, "'f2' on yellow") {
		t.Fatalf("filter listing wrong:\n%s", text)
	}
}

func TestAddProcessCopiesExecutable(t *testing.T) {
	// blue has no /bin/A; the controller must rcp it from its own
	// machine (section 3.5.3). Place it on yellow first.
	c, ctl, out := newSystem(t)
	yellow, _ := c.Machine("yellow")
	if err := yellow.FS().CreateExecutable("/bin/A", testUID, "progA"); err != nil {
		t.Fatal(err)
	}
	blue, _ := c.Machine("blue")
	if blue.FS().Exists("/bin/A") {
		t.Fatal("precondition: /bin/A already on blue")
	}
	ctl.Exec("filter f1")
	ctl.Exec("newjob j")
	ctl.Exec("addprocess j blue A")
	if !strings.Contains(out.String(), "process 'A' ... created") {
		t.Fatalf("output = %q", out.String())
	}
	if !blue.FS().Exists("/bin/A") {
		t.Fatal("executable not copied to blue")
	}
}

func TestAddProcessMissingEverywhere(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1")
	ctl.Exec("newjob j")
	ctl.Exec("addprocess j red nonesuch")
	if !strings.Contains(out.String(), "not created") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRemoveJobRefusedWhileActive(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo red A")
	// Process is new: removejob must refuse (new->killed is illegal).
	ctl.Exec("removejob foo")
	if !strings.Contains(out.String(), "not removed") {
		t.Fatalf("output = %q", out.String())
	}
	if len(ctl.Jobs()) != 1 {
		t.Fatal("job vanished despite refusal")
	}
}

func TestStopThenRemoveKillsProcesses(t *testing.T) {
	c, ctl, out := newSystem(t)
	c.RegisterProgram("spin", func(p *kernel.Process) int {
		for {
			p.Compute(time.Millisecond)
		}
	})
	red, _ := c.Machine("red")
	if err := red.FS().CreateExecutable("/bin/spin", testUID, "spin"); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo red spin")
	ctl.Exec("startjob foo")
	ctl.Exec("stopjob foo")
	ctl.Exec("removejob foo")
	text := out.String()
	if !strings.Contains(text, "'spin' stopped.") || !strings.Contains(text, "'spin' removed") {
		t.Fatalf("output:\n%s", text)
	}
	if len(ctl.Jobs()) != 0 {
		t.Fatal("job not removed")
	}
}

func TestStartJobStateRules(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo red A")
	ctl.Exec("addprocess foo green B")
	ctl.Exec("startjob foo")
	waitFor(t, "completion", jobDone(ctl, "foo"))
	// Killed processes cannot be started.
	ctl.Exec("startjob foo")
	if !strings.Contains(out.String(), "'A' not started (killed).") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestJobsListing(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("newjob bar")
	ctl.Exec("addprocess foo red A")
	ctl.Exec("jobs")
	ctl.Exec("jobs foo")
	text := out.String()
	if !strings.Contains(text, "1 'foo' filter 'f1'") || !strings.Contains(text, "2 'bar' filter 'f1'") {
		t.Fatalf("jobs listing:\n%s", text)
	}
	if !strings.Contains(text, "new 'A' on red") {
		t.Fatalf("job detail listing:\n%s", text)
	}
}

func TestSetFlagsUnionAndReset(t *testing.T) {
	_, ctl, _ := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("setflags foo send receive")
	ctl.Exec("setflags foo fork")
	jobs := ctl.Jobs()
	want := meter.MSend | meter.MReceive | meter.MFork
	if jobs[0].Flags != want {
		t.Fatalf("flags = %b, want %b (union semantics)", jobs[0].Flags, want)
	}
	ctl.Exec("setflags foo -send")
	if got := ctl.Jobs()[0].Flags; got != meter.MReceive|meter.MFork {
		t.Fatalf("flags after -send = %b", got)
	}
	ctl.Exec("setflags foo -all")
	if got := ctl.Jobs()[0].Flags; got != 0 {
		t.Fatalf("flags after -all = %b", got)
	}
}

func TestFlagsInheritedByAddedProcess(t *testing.T) {
	_, ctl, _ := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("setflags foo send receive")
	ctl.Exec("addprocess foo red A")
	p := ctl.Jobs()[0].Procs[0]
	if p.Flags != meter.MSend|meter.MReceive {
		t.Fatalf("process flags = %b", p.Flags)
	}
}

func TestSourceAndSink(t *testing.T) {
	c, ctl, out := newSystem(t)
	yellow, _ := c.Machine("yellow")
	script := "sink /usr/out.txt\nfilter f1 blue\nsink\n"
	if err := yellow.FS().Create("/usr/script", testUID, fsys.DefaultMode, []byte(script)); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("source script")
	// The filter-created message went to the sink file, not the
	// terminal.
	if strings.Contains(out.String(), "created") {
		t.Fatalf("sinked output leaked to terminal: %q", out.String())
	}
	data, err := yellow.FS().Read("/usr/out.txt", testUID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "filter 'f1' ... created") {
		t.Fatalf("sink file contents = %q", data)
	}
	// After "sink" with no argument, output returns to the terminal.
	ctl.Exec("jobs")
	ctl.Exec("filter f9 nowhere")
	if !strings.Contains(out.String(), "not created") {
		t.Fatal("post-sink output did not return to terminal")
	}
}

func TestSourceNestingLimit(t *testing.T) {
	c, ctl, out := newSystem(t)
	yellow, _ := c.Machine("yellow")
	// A self-sourcing script recurses past the limit of 16.
	if err := yellow.FS().Create("/usr/loop", testUID, fsys.DefaultMode, []byte("source loop\n")); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("source loop")
	if !strings.Contains(out.String(), "nesting deeper than 16") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestDieWarnsWithActiveProcesses(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo red A")
	if !ctl.Exec("die") {
		t.Fatal("first die exited despite active processes")
	}
	if !strings.Contains(out.String(), "active processes exist") {
		t.Fatalf("output = %q", out.String())
	}
	// An intervening command disarms the repeat.
	ctl.Exec("jobs")
	if !ctl.Exec("die") {
		t.Fatal("die after disarm exited immediately")
	}
	// Immediate repetition exits.
	if ctl.Exec("die") {
		t.Fatal("repeated die did not exit")
	}
}

func TestDieKillsFilters(t *testing.T) {
	c, ctl, _ := newSystem(t)
	ctl.Exec("filter f1 blue")
	pid := ctl.Filters()[0].PID
	blue, _ := c.Machine("blue")
	if _, err := blue.Proc(pid); err != nil {
		t.Fatal("filter not running before die")
	}
	if ctl.Exec("die") {
		t.Fatal("die did not exit")
	}
	waitFor(t, "filter to be killed", func() bool {
		_, err := blue.Proc(pid)
		return err != nil
	})
}

func TestBadTokensRejected(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("newjob foo;bar")
	if !strings.Contains(out.String(), "bad token") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestUnknownCommand(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("frobnicate")
	if !strings.Contains(out.String(), "unknown command") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestHelpListsCommandsAndFlags(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("help")
	text := out.String()
	for _, cmd := range []string{"filter", "newjob", "addprocess", "acquire", "setflags",
		"startjob", "stopjob", "removejob", "jobs", "getlog", "source", "sink", "die"} {
		if !strings.Contains(text, cmd) {
			t.Errorf("help lacks %s", cmd)
		}
	}
	names := meter.AllFlagNames()
	sort.Strings(names)
	for _, f := range names {
		if !strings.Contains(text, f) {
			t.Errorf("help lacks flag %s", f)
		}
	}
}

func TestRunREPL(t *testing.T) {
	_, ctl, out := newSystem(t)
	in := strings.NewReader("filter f1 blue\nbye\n")
	ctl.Run(in)
	text := out.String()
	if !strings.Contains(text, "<Control> ") {
		t.Fatalf("no prompt in output: %q", text)
	}
	if !ctl.Closed() {
		t.Fatal("REPL did not exit on bye")
	}
}

func TestRemoveProcessSingle(t *testing.T) {
	c, ctl, out := newSystem(t)
	c.RegisterProgram("spin2", func(p *kernel.Process) int {
		for {
			p.Compute(time.Millisecond)
		}
	})
	red, _ := c.Machine("red")
	if err := red.FS().CreateExecutable("/bin/spin2", testUID, "spin2"); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo red spin2")
	pid := ctl.Jobs()[0].Procs[0].PID
	ctl.Exec("startjob foo")
	// Running: refuse.
	ctl.Exec("removeprocess foo red " + strconv.Itoa(pid))
	if !strings.Contains(out.String(), "not removed") {
		t.Fatalf("output = %q", out.String())
	}
	ctl.Exec("stopjob foo")
	ctl.Exec("removeprocess foo red " + strconv.Itoa(pid))
	if got := len(ctl.Jobs()[0].Procs); got != 0 {
		t.Fatalf("%d procs left in job", got)
	}
}

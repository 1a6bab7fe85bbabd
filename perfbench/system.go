package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dpm/internal/controller"
	"dpm/internal/core"
	"dpm/internal/filter"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
)

// The benchmark's cluster: two request/reply pairs (red→green and
// white→yellow), the filter on a fifth machine, blue, and the
// controller on yellow.
const (
	filterName    = "f"
	filterMachine = "blue"
	ctlMachine    = "yellow"
	msgSize       = 64
	uid           = core.DefaultUID
)

var (
	machines = []string{"red", "green", "white", "yellow", "blue"}
	pairs    = []struct{ client, server string }{{"red", "green"}, {"white", "yellow"}}
)

// terminal is the controller's output, shared with its notification
// goroutine.
type terminal struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (t *terminal) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.Write(p)
}

// take returns and discards everything written so far.
func (t *terminal) take() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.buf.String()
	t.buf.Reset()
	return s
}

// bench is one booted system plus the bookkeeping of a run on it.
type bench struct {
	sys     *core.System
	ctl     *controller.Controller
	term    *terminal
	rng     *rand.Rand
	payload []byte
	tr      *tracer // nil in timed runs
	blue    *kernel.Machine
	yellow  *kernel.Machine
	appends *obs.Counter // records appended to blue's stores

	jobs     int
	nextPort uint16
	metered  typeCounts // events of the jobs started so far, by type

	mu      sync.Mutex
	rtts    []float64 // app round trips, µs
	appErrs []string

	acct *accounts
}

// accounts collects command outcomes, latency samples and check
// results across the set-ups and the measured phase of one run.
type accounts struct {
	issued, failed int
	failures       []string
	samples        map[string][]float64 // command kind → latencies (ms) of successful commands
	checks         int
	checkErrs      []string
}

func newAccounts() *accounts { return &accounts{samples: make(map[string][]float64)} }

// check records one check outcome.
func (a *accounts) check(what string, err error) {
	a.checks++
	if err != nil {
		a.checkErrs = append(a.checkErrs, what+": "+err.Error())
	}
}

// boot builds and starts a system with the benchmark's programs
// installed and the filter running. A traced bench runs the
// benchmark's own filter program instead of the standard one.
func boot(seed int64, tr *tracer, acct *accounts) (*bench, error) {
	sys, err := core.NewSystem(core.Config{Machines: machines})
	if err != nil {
		return nil, err
	}
	b := &bench{sys: sys, term: &terminal{}, rng: rand.New(rand.NewSource(seed)), tr: tr,
		nextPort: 7100, acct: acct, metered: typeCounts{}}
	b.payload = make([]byte, msgSize)
	b.rng.Read(b.payload)
	fail := func(err error) (*bench, error) {
		sys.Shutdown()
		return nil, err
	}
	if b.blue, err = sys.Machine(filterMachine); err != nil {
		return fail(err)
	}
	if b.yellow, err = sys.Machine(ctlMachine); err != nil {
		return fail(err)
	}
	b.appends = b.blue.Obs().Counter("store.appends")
	if err := sys.RegisterWorkload("benchserver", b.serverMain); err != nil {
		return fail(err)
	}
	if err := sys.RegisterWorkload("benchclient", b.clientMain); err != nil {
		return fail(err)
	}
	filterFile := ""
	if tr != nil {
		if err := sys.RegisterWorkload("tracedfilter", b.tracedFilterMain, filterMachine); err != nil {
			return fail(err)
		}
		filterFile = " /bin/tracedfilter"
	}
	if b.ctl, err = sys.NewController(ctlMachine, b.term); err != nil {
		return fail(err)
	}
	if _, _, ok := b.command("filter", "filter "+filterName+" "+filterMachine+filterFile, wantOutput("created")); !ok {
		return fail(errors.New("filter not created"))
	}
	return b, nil
}

func (b *bench) shutdown() { b.sys.Shutdown() }

// expected is how many events the jobs started so far must store.
func (b *bench) expected() int64 { return b.metered.total() }

// command runs one controller command and judges it with ok, which
// sees the command's terminal output. Every command counts as issued;
// a failed one is recorded, and only successful ones give a latency
// sample under kind.
func (b *bench) command(kind, line string, ok func(out string) error) (string, time.Duration, bool) {
	b.term.take()
	start := time.Now()
	b.ctl.Exec(line)
	d := time.Since(start)
	out := b.term.take()
	b.acct.issued++
	if err := ok(out); err != nil {
		b.acct.failed++
		b.acct.failures = append(b.acct.failures, fmt.Sprintf("%s (%v): %v", line, d.Round(time.Millisecond), err))
		return out, d, false
	}
	b.acct.samples[kind] = append(b.acct.samples[kind], ms(d))
	return out, d, true
}

// wantOutput accepts a command whose output contains want.
func wantOutput(want string) func(string) error {
	return func(out string) error {
		if !strings.Contains(out, want) {
			return fmt.Errorf("output lacks %q: %q", want, strings.TrimSpace(out))
		}
		return nil
	}
}

// noOutput accepts a command that printed nothing of its own (state
// change notices from the notification socket aside).
func noOutput(out string) error {
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if l != "" && !strings.HasPrefix(l, "DONE:") {
			return fmt.Errorf("unexpected output %q", l)
		}
	}
	return nil
}

// job is one run of the request/reply generator.
type job struct {
	name   string
	rounds int
	pairs  int
	procs  []procRef
	events int64 // metered events the job must store

	start  time.Time
	done   chan struct{} // closed once the store holds the job's events, or ingest stalled
	ingest time.Duration // startjob until the store held the job's last event
	lost   int64         // events that never reached the store
}

// procRef identifies one process of a job in the trace.
type procRef struct {
	machine int // machine id, the trace's machine field
	pid     int
}

// perPair is what one metered pair of R rounds must leave in the
// store: each side sends R and receives R messages, and both
// terminate.
func perPair(rounds int) typeCounts {
	return typeCounts{meter.EvSend: 2 * int64(rounds), meter.EvRecv: 2 * int64(rounds), meter.EvTermProc: 2}
}

// typeCounts maps an event type to a record count.
type typeCounts map[meter.Type]int64

func (c typeCounts) total() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

// stallTimeout is how long the store may gain no records, after a
// job's processes have all ended, before its missing events count as
// lost.
const stallTimeout = 3 * time.Second

// runJob runs one generator job to completion.
func (b *bench) runJob(rounds, npairs int, metered bool) (*job, error) {
	j, err := b.startJob(rounds, npairs, metered)
	if err != nil {
		return nil, err
	}
	return j, b.awaitJob(j)
}

// startJob creates and starts one generator job of npairs pairs. With
// metered false the job's flags stay clear: it runs the same programs
// and produces no events, the unmetered baseline. A watcher notes when
// the store holds every event of the job.
func (b *bench) startJob(rounds, npairs int, metered bool) (*job, error) {
	j := &job{name: fmt.Sprintf("j%d", b.jobs), rounds: rounds, pairs: npairs, done: make(chan struct{})}
	b.jobs++
	if _, _, ok := b.command("newjob", "newjob "+j.name+" "+filterName, noOutput); !ok {
		return nil, errors.New("newjob failed")
	}
	if metered {
		if _, _, ok := b.command("setflags", "setflags "+j.name+" send receive termproc", wantOutput("new job flags")); !ok {
			return nil, errors.New("setflags failed")
		}
		want := j.want()
		j.events = want.total()
		for t, n := range want {
			b.metered[t] += n
		}
	}
	for i := 0; i < npairs; i++ {
		pr := pairs[i]
		port := b.nextPort
		b.nextPort++
		for _, line := range []string{
			fmt.Sprintf("addprocess %s %s benchserver %d %d", j.name, pr.server, port, rounds),
			fmt.Sprintf("addprocess %s %s benchclient %d %d %s", j.name, pr.client, port, rounds, pr.server),
		} {
			if _, _, ok := b.command("addprocess", line, wantOutput("created")); !ok {
				return nil, fmt.Errorf("%s failed", line)
			}
		}
	}
	for _, cj := range b.ctl.Jobs() {
		if cj.Name != j.name {
			continue
		}
		for _, p := range cj.Procs {
			m, err := b.sys.Machine(p.Machine)
			if err != nil {
				return nil, err
			}
			j.procs = append(j.procs, procRef{machine: int(m.ID()), pid: p.PID})
		}
	}
	target := b.expected()
	j.start = time.Now()
	if _, _, ok := b.command("startjob", "startjob "+j.name, wantOutput("started")); !ok {
		return nil, errors.New("startjob failed")
	}
	go b.watch(j, target)
	return j, nil
}

// watch waits until the store holds target records, or until ingest
// has stalled after the job ended, and records the ingest time.
func (b *bench) watch(j *job, target int64) {
	defer close(j.done)
	last, changed := int64(-1), time.Now()
	for {
		n := b.appends.Load()
		now := time.Now()
		if n >= target {
			j.ingest = now.Sub(j.start)
			return
		}
		if n != last {
			last, changed = n, now
		} else if now.Sub(changed) > stallTimeout && b.jobEnded(j.name) {
			j.ingest, j.lost = changed.Sub(j.start), target-n
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// jobEnded reports whether every process of the named job has ended.
func (b *bench) jobEnded(name string) bool {
	for _, cj := range b.ctl.Jobs() {
		if cj.Name == name {
			for _, p := range cj.Procs {
				if p.State != controller.StateKilled {
					return false
				}
			}
			return true
		}
	}
	return false
}

// awaitJob waits for a started job's events and processes.
func (b *bench) awaitJob(j *job) error {
	<-j.done
	if err := core.WaitJob(b.ctl, j.name, time.Minute); err != nil {
		return err
	}
	b.mu.Lock()
	appErrs := b.appErrs
	b.mu.Unlock()
	if len(appErrs) > 0 {
		return fmt.Errorf("workload program failed: %s", strings.Join(appErrs, "; "))
	}
	return nil
}

// appError records a failure inside a workload program.
func (b *bench) appError(p *kernel.Process, format string, args ...any) int {
	b.mu.Lock()
	b.appErrs = append(b.appErrs, fmt.Sprintf("%s pid %d: ", p.Machine().Name(), p.PID())+fmt.Sprintf(format, args...))
	b.mu.Unlock()
	return 1
}

// serverMain is the server of a request/reply pair. args: port, rounds.
// Each round it receives one message, computes for 1 ms of virtual
// time (so the machine clock, and with it cpuTime, advances) and
// replies with a message of the same size.
func (b *bench) serverMain(p *kernel.Process) int {
	var port, rounds int
	if _, err := fmt.Sscan(strings.Join(p.Args(), " "), &port, &rounds); err != nil {
		return b.appError(p, "args %q: %v", p.Args(), err)
	}
	lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
	if err == nil {
		err = p.BindPort(lfd, uint16(port))
	}
	if err == nil {
		err = p.Listen(lfd, 4)
	}
	if err != nil {
		return b.appError(p, "listen %d: %v", port, err)
	}
	fd, _, err := p.Accept(lfd)
	if err != nil {
		return b.appError(p, "accept: %v", err)
	}
	sends := b.tr.local()
	for i := 0; i < rounds; i++ {
		if err := recvMsg(p, fd); err != nil {
			return b.appError(p, "round %d: %v", i, err)
		}
		p.Compute(time.Millisecond)
		if err := sends.send(p, fd, b.payload); err != nil {
			return b.appError(p, "round %d: send: %v", i, err)
		}
	}
	b.tr.merge(sends)
	return 0
}

// clientMain is the client of a request/reply pair. args: port, rounds,
// server machine. It times every round trip.
func (b *bench) clientMain(p *kernel.Process) int {
	var port, rounds int
	var server string
	if _, err := fmt.Sscan(strings.Join(p.Args(), " "), &port, &rounds, &server); err != nil {
		return b.appError(p, "args %q: %v", p.Args(), err)
	}
	fd, err := dial(p, server, uint16(port))
	if err != nil {
		return b.appError(p, "connect %s:%d: %v", server, port, err)
	}
	rtts := make([]float64, 0, rounds)
	sends := b.tr.local()
	for i := 0; i < rounds; i++ {
		p.Compute(time.Millisecond)
		start := time.Now()
		if err := sends.send(p, fd, b.payload); err != nil {
			return b.appError(p, "round %d: send: %v", i, err)
		}
		if err := recvMsg(p, fd); err != nil {
			return b.appError(p, "round %d: %v", i, err)
		}
		rtts = append(rtts, float64(time.Since(start))/1e3)
	}
	b.tr.merge(sends)
	b.mu.Lock()
	b.rtts = append(b.rtts, rtts...)
	b.mu.Unlock()
	return 0
}

// takeRTTs returns and clears the round trips recorded so far.
func (b *bench) takeRTTs() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.rtts
	b.rtts = nil
	return r
}

// recvMsg receives exactly one message. The peer sends one message
// per round and waits for the answer, so a single receive must carry
// all of it; anything else would break the per-type count check.
func recvMsg(p *kernel.Process, fd int) error {
	data, err := p.Recv(fd, msgSize)
	if err != nil {
		return fmt.Errorf("recv: %w", err)
	}
	if len(data) != msgSize {
		return fmt.Errorf("recv: %d bytes, want %d", len(data), msgSize)
	}
	return nil
}

// dial connects to server:port, retrying while the server is still
// starting (both ends of a job start together).
func dial(p *kernel.Process, server string, port uint16) (int, error) {
	host, _, err := p.Machine().Cluster().ResolveFrom(p.Machine(), server)
	if err != nil {
		return -1, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		fd, err := p.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			return -1, err
		}
		if err = p.Connect(fd, meter.InetName(host, port)); err == nil {
			return fd, nil
		}
		_ = p.Close(fd)
		if time.Now().After(deadline) {
			return -1, err
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// logBytes reads the filter's flat log straight from blue's file
// system, the reference the getlog checks compare against.
func (b *bench) logBytes() ([]byte, error) {
	return b.blue.FS().Read(filter.LogPath(filterName), uid)
}

// ctlFile reads a file the controller wrote on its machine.
func (b *bench) ctlFile(name string) ([]byte, error) {
	return b.yellow.FS().Read("/usr/"+name, uid)
}

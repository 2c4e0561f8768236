package main

// The load driver. It is open loop: request i is due at start + i/rate
// whatever happened to earlier requests, and its latency is timed from
// that due time, so a stall on the server shows up in every request
// that had to wait behind it. Requests go out over at most two
// keep-alive connections (the box has two cores); when both are busy,
// due requests wait in the driver and that wait counts. A request that
// fails — a non-200 status, a transport error or a timeout — counts as
// over any latency limit.
//
// internal/loadgen.Run is not used for latency: it starts each
// request's clock when the request is sent rather than when it was due,
// and keeps only 200 responses in its histogram, so under a backlog it
// reports the service time of the requests that got through and hides
// the queueing delay (the 2400 rps row of BENCH_8.json is that case).
// The driver reuses loadgen.Workload for the deterministic zipf query
// stream and leaves loadgen itself unchanged.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the number of connections the driver keeps open: one per
// core of the benchmark box.
const conns = 2

// requestTimeout bounds one request; a timeout is a failure.
const requestTimeout = 5 * time.Second

// query is one /search request.
type query struct {
	q    string
	k    int
	rank string
}

func (q query) path() string {
	p := "/search?q=" + url.QueryEscape(q.q) + "&k=" + strconv.Itoa(q.k)
	if q.rank != "" {
		p += "&rank=" + q.rank
	}
	return p
}

// client is one keep-alive HTTP/1.1 connection to qualityserve. It writes
// the request line and reads the response by hand — status line, the
// three headers it needs, a Content-Length or chunked body — so the
// server receives exactly the generated requests and the driver spends
// as little CPU per request as it can; anything it does not understand
// is an error, which counts as a failed request.
type client struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

func newClient(addr string) *client { return &client{addr: addr} }

func (c *client) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// get sends one GET and reads the whole response. The returned body is
// valid until the next call.
func (c *client) get(path string) (status int, gen uint64, body []byte, err error) {
	if c.c == nil {
		conn, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, 0, nil, err
		}
		c.c = conn
		c.br = bufio.NewReaderSize(conn, 16<<10)
	}
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		c.close()
		return 0, 0, nil, err
	}
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	if _, err := c.c.Write(c.req); err != nil {
		c.close()
		return 0, 0, nil, err
	}
	status, gen, keep, err := c.readResponse()
	if err != nil {
		c.close()
		return 0, 0, nil, err
	}
	if !keep {
		c.close()
	}
	return status, gen, c.body, nil
}

var errResponse = errors.New("malformed HTTP response")

// readResponse reads one response into c.body.
func (c *client) readResponse() (status int, gen uint64, keep bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, 0, false, errResponse
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, 0, false, errResponse
	}
	length, chunked, keep := -1, false, true
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, 0, false, errResponse
		}
		name, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil || length < 0 {
				return 0, 0, false, errResponse
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			keep = !bytes.EqualFold(val, []byte("close"))
		case bytes.EqualFold(name, []byte("X-Quality-Generation")):
			if g, err := strconv.ParseUint(string(val), 10, 64); err == nil {
				gen = g // a bad header leaves generation 0, which fails the checks
			}
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, 0, false, err
			}
			n, err := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 31)
			if err != nil {
				return 0, 0, false, errResponse
			}
			if err := c.readBody(int(n) + 2); err != nil { // the chunk and its CRLF
				return 0, 0, false, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				return status, gen, keep, nil
			}
		}
	case length >= 0:
		return status, gen, keep, c.readBody(length)
	}
	return 0, 0, false, errResponse
}

// readBody appends n bytes from the connection to c.body.
func (c *client) readBody(n int) error {
	start := len(c.body)
	c.body = append(c.body, make([]byte, n)...)
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

// outcome is one request as the driver saw it; times are nanoseconds
// since the phase started.
type outcome struct {
	due, sent, done int64
	late            int64 // how late the generator sent, ignoring waits for a busy connection
	gen             uint32
	status          int16 // 0: transport error or timeout
}

func (o outcome) ok() bool { return o.status == http.StatusOK }

// latency is the request's latency from its due time; a failed request
// is infinitely late.
func (o outcome) latency() float64 {
	if !o.ok() {
		return math.Inf(1)
	}
	return float64(o.done - o.due)
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	rate     float64
	n        int          // requests to schedule; 0 runs until stop
	first    uint64       // stream index of the phase's first request
	stop     *atomic.Bool // ends an unbounded phase
	gen      func(i uint64) query
	check    func(body []byte, q query, gen uint64) error
	maxLate  time.Duration // abort once a request is sent this late (0: never)
	onAnswer func()        // counts every answered request
}

// phaseResult is what a phase measured.
type phaseResult struct {
	start   time.Time
	outs    []outcome // in request order
	aborted bool      // a send fell maxLate behind: the rate is over capacity
	badBody error     // first response that failed the output checks
	bad     int
}

// run drives the phase to completion.
func (p phase) run(addr string) *phaseResult {
	interval := float64(time.Second) / p.rate
	var (
		next    atomic.Uint64
		abort   atomic.Bool
		mu      sync.Mutex
		res     = &phaseResult{}
		perWork = make([][]outcome, conns)
		wg      sync.WaitGroup
	)
	res.start = time.Now().Add(time.Millisecond)
	start := res.start
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns its thread and sleeps with nanosleep at 1ns
			// timer slack: the runtime's timers here wake up to a
			// millisecond late, ten times the service time of a cached
			// search, and every microsecond of that would be charged to
			// the server as latency from due time.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			setTimerSlack()
			c := newClient(addr)
			defer c.close()
			free := int64(0) // when this connection last became free
			for {
				i := next.Add(1) - 1
				if (p.n > 0 && i >= uint64(p.n)) || (p.stop != nil && p.stop.Load()) || abort.Load() {
					return
				}
				due := int64(float64(i) * interval)
				if d := due - int64(time.Since(start)); d > 0 {
					nanosleep(d)
				}
				sent := int64(time.Since(start))
				if p.maxLate > 0 && time.Duration(sent-due) > p.maxLate {
					abort.Store(true)
					return
				}
				q := p.gen(p.first + i)
				status, gen, body, err := c.get(q.path())
				done := int64(time.Since(start))
				o := outcome{due: due, sent: sent, done: done, late: sent - max(due, free), gen: uint32(gen)}
				free = done
				if err == nil {
					o.status = int16(status)
					if p.onAnswer != nil {
						p.onAnswer()
					}
				}
				if o.ok() && p.check != nil {
					if cerr := p.check(body, q, gen); cerr != nil {
						mu.Lock()
						if res.badBody == nil {
							res.badBody = fmt.Errorf("%s: %w", q.path(), cerr)
						}
						res.bad++
						mu.Unlock()
					}
				}
				perWork[w] = append(perWork[w], o)
			}
		}(w)
	}
	wg.Wait()
	res.aborted = abort.Load()
	for _, o := range perWork {
		res.outs = append(res.outs, o...)
	}
	sort.Slice(res.outs, func(i, j int) bool { return res.outs[i].due < res.outs[j].due })
	return res
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// setTimerSlack sets the calling thread's timer slack to 1ns, so its
// sleeps end when asked rather than up to 50µs later.
func setTimerSlack() {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: without it sleeps are just coarser
}

// nanosleep blocks the calling thread for ns nanoseconds.
func nanosleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// failures counts requests that did not answer 200.
func (r *phaseResult) failures() int {
	n := 0
	for _, o := range r.outs {
		if !o.ok() {
			n++
		}
	}
	return n
}

// backlogMax is the largest number of requests that were due but not yet
// sent, sampled at each send.
func (r *phaseResult) backlogMax(rate float64) int {
	interval := float64(time.Second) / rate
	worst := 0
	for i, o := range r.outs {
		if b := int(float64(o.sent)/interval) - i; b > worst {
			worst = b
		}
	}
	return worst
}

// latencies returns the latencies from due time of the requests due in
// [from, to) nanoseconds, failures as +Inf.
func (r *phaseResult) latencies(from, to int64) []float64 {
	var out []float64
	for _, o := range r.outs {
		if o.due >= from && o.due < to {
			out = append(out, o.latency())
		}
	}
	return out
}

// lateness returns how late the generator sent each request, in ns.
func (r *phaseResult) lateness() []float64 {
	out := make([]float64, len(r.outs))
	for i, o := range r.outs {
		out[i] = float64(o.late)
	}
	return out
}

// firstAnswer returns when (ns since phase start) the first 200 response
// of generation gen arrived.
func (r *phaseResult) firstAnswer(gen uint64) (int64, bool) {
	best, found := int64(math.MaxInt64), false
	for _, o := range r.outs {
		if o.ok() && uint64(o.gen) == gen && o.done < best {
			best, found = o.done, true
		}
	}
	return best, found
}

// quantile returns the q-quantile of xs (sorted in place) by the
// nearest-rank rule on exact samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs (sorted in place), averaging the two
// middle values of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// drain discards a reader; used for control requests.
func drain(r io.Reader) { io.Copy(io.Discard, r) }

package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
)

// Search latency limits: a ladder rung passes when the p99 from due time
// is within latencyLimit, at most maxFailFrac of its requests fail, and
// the backlog does not grow.
const (
	latencyLimit = 10 * time.Millisecond
	maxFailFrac  = 0.001
	// abortLate ends a rung once a send falls this far behind its due
	// time: the rate is over capacity and the backlog is growing.
	abortLate = 50 * time.Millisecond
)

// bench is the state of one run.
type bench struct {
	cfg config
	log io.Writer
	dir string
	tr  *tracer

	wl      *workload
	sim     *webcorpus.Sim
	store   string
	archive string

	snaps    []snapshot.Snapshot // every crawl's snapshot, oldest first
	last     webState            // the newest state crawled
	crawls   []*crawlStats       // every crawl; crawl number = index + 1
	measured []int               // indices of the crawls the crawl metrics cover
	writes   []time.Duration     // store rewrites the metrics cover

	srv    *server
	gen    uint64                     // generation qualityserve serves
	canon  sync.Map                   // generation -> map[string]bool of canonical URLs
	inputs map[uint64]genInputs       // what each generation was built from
	served map[uint64]serverStats     // /stats while the generation was live
	probes map[uint64][]probeResponse // probe answers per generation
	cycles []*cycleResult

	answered atomic.Uint64 // search requests that got any HTTP response
	// streamPos is the workload stream's next unused index: every phase
	// starts there, so no query repeats across phases and query-tail
	// stays distinct for the whole run.
	streamPos uint64

	mu        sync.Mutex // guards the fields below; the recrawl stream shares them
	attempted int
	failed    int
	failures  []string

	metrics map[string]metric
}

// genInputs records a generation's inputs so its replica can be rebuilt
// from exactly what the server read: a copy of the store and the size of
// every archive file at refresh time (the archive only grows).
type genInputs struct {
	store string
	files map[string]int64
}

// probeResponse is one probe query's answer from the server.
type probeResponse struct {
	q    query
	body []byte
}

// cycleResult is one ingest cycle: crawl, store rewrite, /refresh.
type cycleResult struct {
	crawlStart time.Time
	refresh    time.Duration
	fresh      time.Duration // crawl start until the first answer from the new generation
	gen        uint64
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "perfbench: "+format+"\n", args...)
}

// count adds requests to the result's accounting.
func (b *bench) count(attempted, failed int) {
	b.mu.Lock()
	b.attempted += attempted
	b.failed += failed
	b.mu.Unlock()
}

// fail records a correctness failure; the run goes on so that every
// failing check is reported, and the result is marked incorrect.
func (b *bench) fail(err error) {
	b.mu.Lock()
	b.failures = append(b.failures, err.Error())
	b.mu.Unlock()
}

func (b *bench) stopServer() {
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
}

func (b *bench) execute(ctx context.Context) error {
	cfg := b.cfg
	b.store = filepath.Join(b.dir, "web.pqs")
	b.archive = filepath.Join(b.dir, "pages")
	b.inputs = map[uint64]genInputs{}
	b.served = map[uint64]serverStats{}
	b.probes = map[uint64][]probeResponse{}
	b.metrics = map[string]metric{}

	cycles := cfg.cycles
	if cfg.workload == "recrawl" {
		cycles = cfg.recrawlCycles
	}
	t0 := time.Now()
	states, sim, err := simulate(cfg.scale, cfg.seed, 3+cycles)
	if err != nil {
		return err
	}
	b.sim = sim
	if b.wl, err = newWorkload(cfg.workload, cfg.seed, sim); err != nil {
		return err
	}
	b.logf("%s seed %d: simulated %d states in %.2fs (%d pages, %d links in the first)",
		cfg.workload, cfg.seed, len(states), time.Since(t0).Seconds(), states[0].graph.NumNodes(), states[0].graph.NumEdges())

	// The fixture: three crawls and a store of three snapshots.
	for _, st := range states[:3] {
		if _, err := b.crawl(ctx, st, !b.wl.recrawl); err != nil {
			return err
		}
	}
	t0 = time.Now()
	if err := writeStore(b.store, b.snaps, b.tr, len(b.crawls)); err != nil {
		return err
	}
	if !b.wl.recrawl {
		b.writes = append(b.writes, time.Since(t0))
	}
	b.canon.Store(uint64(1), canonicalSet(b.snaps[len(b.snaps)-1].Graph))
	if err := b.saveInputs(1); err != nil {
		return err
	}

	// Set-up: exec qualityserve until /healthz answers, several times.
	var setups []float64
	for i := 0; i < cfg.setupRuns; i++ {
		srv, err := startServer(ctx, cfg.serverBin, b.store, b.archive, filepath.Join(b.dir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return err
		}
		setups = append(setups, srv.ready.Seconds())
		if mb, err := srv.hwmMB(); err == nil {
			b.logf("server %d ready in %.3fs, VmHWM %.1f MiB", i, srv.ready.Seconds(), mb)
		}
		if i < cfg.setupRuns-1 {
			srv.stop()
		} else {
			b.srv = srv
		}
	}
	b.logf("setup %v s", setups)
	st, err := b.srv.stats()
	if err != nil {
		return err
	}
	if st.Generation != 1 {
		b.fail(fmt.Errorf("fresh server reports generation %d, want 1", st.Generation))
	}
	b.gen = st.Generation
	b.served[b.gen] = st
	if err := b.probe(b.gen); err != nil {
		return err
	}

	// Warm up: fill the cache and the connection pools at the reference
	// rate before anything is timed.
	b.load(phase{rate: b.wl.refRate, n: int(b.wl.refRate / 2), gen: b.wl.stream})

	var sp searchPhases
	if b.wl.recrawl {
		err = b.runRecrawl(ctx, states[3:], &sp)
	} else {
		err = b.runQueries(ctx, states[3:], &sp)
	}
	if err != nil {
		return err
	}

	end, err := b.srv.stats()
	if err != nil {
		return err
	}
	if err := checkAccounting(end.Admitted, end.Shed, b.answered.Load()); err != nil {
		b.fail(err)
	}
	rss, err := b.srv.hwmMB()
	if err != nil {
		return err
	}
	b.stopServer()

	reps, err := b.checkReplicas()
	if err != nil {
		return err
	}
	b.report(setups, rss, &sp, reps)
	return nil
}

// crawl crawls one state into the archive and records it.
func (b *bench) crawl(ctx context.Context, st webState, measured bool) (*crawlStats, error) {
	cs, err := crawlInto(ctx, st, b.archive, b.tr, len(b.crawls)+1)
	if err != nil {
		return nil, fmt.Errorf("crawl %s: %w", st.label, err)
	}
	if cs.stats.Errors != 0 {
		b.fail(fmt.Errorf("crawl %s: %d errors", st.label, cs.stats.Errors))
	}
	if measured {
		b.measured = append(b.measured, len(b.crawls))
	}
	b.crawls = append(b.crawls, cs)
	b.snaps = append(b.snaps, cs.snap)
	b.last = st
	b.logf("crawl %s: %d pages in %.3fs", st.label, cs.pages, cs.wall.Seconds())
	return cs, nil
}

// saveInputs records what generation gen is built from.
func (b *bench) saveInputs(gen uint64) error {
	data, err := os.ReadFile(b.store)
	if err != nil {
		return err
	}
	in := genInputs{store: filepath.Join(b.dir, fmt.Sprintf("web-g%d.pqs", gen)), files: map[string]int64{}}
	if err := os.WriteFile(in.store, data, 0o644); err != nil {
		return err
	}
	ents, err := os.ReadDir(b.archive)
	if err != nil {
		return err
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return err
		}
		in.files[e.Name()] = fi.Size()
	}
	b.inputs[gen] = in
	return nil
}

// checkBody validates one 200 response of the load.
func (b *bench) checkBody(body []byte, q query, gen uint64) error {
	v, ok := b.canon.Load(gen)
	if !ok {
		return fmt.Errorf("answer from unknown generation %d", gen)
	}
	return checkHits(body, q.k, v.(map[string]bool))
}

// load runs one phase against the server with the output checks on and
// adds it to the request accounting. A failed request fails the run,
// except on a ladder rung (a phase with maxLate set): the ladder pushes
// past capacity on purpose, and its failures only judge the rung.
func (b *bench) load(p phase) *phaseResult {
	p.first = b.streamPos
	p.check = b.checkBody
	p.onAnswer = func() { b.answered.Add(1) }
	res := p.run(b.srv.addr)
	b.streamPos += uint64(len(res.outs)) + conns // the workers may have claimed an index each past the last sent
	fails := res.failures()
	b.count(len(res.outs), fails)
	if fails > 0 && p.maxLate == 0 {
		b.fail(fmt.Errorf("%d of %d search requests at %.0f/s failed (non-200, transport error or timeout)",
			fails, len(res.outs), p.rate))
	}
	if res.badBody != nil {
		b.fail(fmt.Errorf("%d responses failed the output checks; first: %w", res.bad, res.badBody))
	}
	return res
}

// probe sends the probe queries to the server, which must answer them
// from generation gen; the answers are checked against the replica later.
func (b *bench) probe(gen uint64) error {
	c := newClient(b.srv.addr)
	defer c.close()
	for _, q := range probeQueries(b.cfg.seed, b.sim) {
		status, g, body, err := c.get(q.path())
		if err != nil {
			return fmt.Errorf("probe %s: %w", q.path(), err)
		}
		b.answered.Add(1)
		if status != 200 || g != gen {
			b.count(1, 1)
			b.fail(fmt.Errorf("probe %s: status %d generation %d, want 200 from generation %d", q.path(), status, g, gen))
			continue
		}
		b.count(1, 0)
		b.probes[gen] = append(b.probes[gen], probeResponse{q: q, body: append([]byte(nil), body...)})
	}
	return nil
}

// cycle runs one ingest cycle: crawl the next state into the archive,
// rewrite the store with the newest three snapshots, and /refresh.
func (b *bench) cycle(ctx context.Context, st webState) (*cycleResult, error) {
	c := &cycleResult{crawlStart: time.Now()}
	cs, err := b.crawl(ctx, st, true)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := writeStore(b.store, b.snaps, b.tr, len(b.crawls)); err != nil {
		return nil, err
	}
	b.writes = append(b.writes, time.Since(t0))
	b.canon.Store(b.gen+1, canonicalSet(cs.snap.Graph))
	gen, d, err := b.srv.refresh()
	c.refresh = d
	if err != nil {
		return nil, fmt.Errorf("refresh after crawl %s: %w", st.label, err)
	}
	stats, err := b.srv.stats()
	if err != nil {
		return nil, err
	}
	if err := checkRefresh(b.gen, gen, stats.Generation); err != nil {
		b.fail(err)
	}
	b.gen = stats.Generation
	c.gen = b.gen
	b.served[b.gen] = stats
	b.cycles = append(b.cycles, c)
	b.logf("cycle %s: refresh %.3fs -> generation %d", st.label, d.Seconds(), gen)
	return c, b.saveInputs(b.gen)
}

// searchPhases holds the load phases the search metrics come from.
type searchPhases struct {
	fixed   *phaseResult // the reference-rate phase (the stream on recrawl)
	ladder  []*rung
	maxRPS  float64
	stats   serverStats   // /stats counter deltas over the pure search phases
	cpuSrv  time.Duration // server CPU over the pure search phases
	srvReqs int           // requests sent in the pure search phases
	cpuDrv  time.Duration // driver CPU over the ladder
	ladReqs int           // requests sent on the ladder
}

// pure runs a phase in which the server does nothing but search, and
// adds its /stats counter deltas, server CPU and request count to sp.
func (b *bench) pure(sp *searchPhases, run func() int) error {
	before, err := b.srv.stats()
	if err != nil {
		return err
	}
	cpu0, err := b.srv.cpu()
	if err != nil {
		return err
	}
	sp.srvReqs += run()
	after, err := b.srv.stats()
	if err != nil {
		return err
	}
	cpu1, err := b.srv.cpu()
	if err != nil {
		return err
	}
	sp.cpuSrv += cpu1 - cpu0
	sp.stats.Searches += after.Searches - before.Searches
	sp.stats.Admitted += after.Admitted - before.Admitted
	sp.stats.Shed += after.Shed - before.Shed
	sp.stats.Hits += after.Hits - before.Hits
	sp.stats.Coalesced += after.Coalesced - before.Coalesced
	sp.stats.Evictions += after.Evictions - before.Evictions
	return nil
}

// runLadder runs the search_max_rps ladder as a pure search phase. Only
// the traced run needs it: search_max_rps is a per-layer metric.
func (b *bench) runLadder(sp *searchPhases) error {
	if !b.cfg.trace {
		return nil
	}
	return b.pure(sp, func() int {
		b.ladder(sp)
		return sp.ladReqs
	})
}

// runQueries is query-head and query-tail: a fixed-rate phase, then
// unloaded ingest cycles so the write-path metrics exist on every
// workload, then (traced) the max-rate ladder. The ladder saturates both
// cores, so it runs last, where it cannot slow what follows.
func (b *bench) runQueries(ctx context.Context, states []webState, sp *searchPhases) error {
	err := b.pure(sp, func() int {
		sp.fixed = b.load(phase{rate: b.wl.refRate, n: int(b.wl.refRate * 0.8 * b.cfg.seconds), gen: b.wl.stream})
		return len(sp.fixed.outs)
	})
	if err != nil {
		return err
	}
	cl := newClient(b.srv.addr)
	defer cl.close()
	for _, st := range states {
		c, err := b.cycle(ctx, st)
		if err != nil {
			return err
		}
		// Freshness with no stream running: one search right after the swap.
		q := b.wl.stream(0)
		status, gen, body, err := cl.get(q.path())
		if err != nil {
			return err
		}
		c.fresh = time.Since(c.crawlStart)
		b.answered.Add(1)
		if status != 200 || gen != c.gen {
			b.count(1, 1)
			b.fail(fmt.Errorf("first search after refresh: status %d generation %d, want 200 from %d", status, gen, c.gen))
		} else {
			b.count(1, 0)
			if err := b.checkBody(body, q, gen); err != nil {
				b.fail(err)
			}
		}
		if err := b.probe(b.gen); err != nil {
			return err
		}
	}
	return b.runLadder(sp)
}

// runRecrawl is recrawl: a fixed-rate head stream runs while the
// benchmark crawls, rewrites the store and refreshes, once per state;
// then (traced) the max-rate ladder runs on the final generation.
func (b *bench) runRecrawl(ctx context.Context, states []webState, sp *searchPhases) error {
	var stop atomic.Bool
	streamDone := make(chan *phaseResult, 1)
	go func() {
		streamDone <- b.load(phase{rate: b.wl.refRate, stop: &stop, gen: b.wl.stream})
	}()
	time.Sleep(200 * time.Millisecond) // the stream's steady state before the first crawl
	var cerr error
	for _, st := range states {
		if _, cerr = b.cycle(ctx, st); cerr != nil {
			break
		}
		if cerr = b.probe(b.gen); cerr != nil {
			break
		}
	}
	time.Sleep(200 * time.Millisecond) // let the stream answer from the last generation
	stop.Store(true)
	sp.fixed = <-streamDone
	if cerr != nil {
		return cerr
	}
	for _, c := range b.cycles {
		at, ok := sp.fixed.firstAnswer(c.gen)
		if !ok {
			b.fail(fmt.Errorf("no stream answer ever came from generation %d", c.gen))
			continue
		}
		c.fresh = sp.fixed.start.Add(time.Duration(at)).Sub(c.crawlStart)
	}
	return b.runLadder(sp)
}

// rung is one evaluated ladder rate.
type rung struct {
	rate float64
	pass bool
	p99  float64 // ns
	res  *phaseResult
}

// ladderRates is the fixed ladder: 5% steps from 250 to 80 000 requests
// per second.
func ladderRates() []float64 {
	var out []float64
	for r := 250.0; r <= 80000; r *= 1.05 {
		out = append(out, math.Round(r))
	}
	return out
}

// ladder finds search_max_rps by bisection over the fixed ladder: the
// highest rung that meets the latency limit with no growing backlog. A
// rung that fails is run once more before it counts as failed, so one
// stall on a shared box cannot send the search below the knee. A rung
// lasts a tenth of the run's seconds, half that on recrawl, whose
// ingest cycles take the rest of its time.
func (b *bench) ladder(sp *searchPhases) {
	rates := ladderRates()
	rungSecs := 0.1 * b.cfg.seconds
	if b.wl.recrawl {
		rungSecs /= 2
	}
	lo, hi := -1, len(rates)
	cpu0 := processCPU()
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		pass := false
		for try := 0; try < 2 && !pass; try++ {
			r := b.rung(rates[mid], rungSecs)
			sp.ladder = append(sp.ladder, r)
			sp.ladReqs += len(r.res.outs)
			pass = r.pass
			time.Sleep(50 * time.Millisecond) // let the server drain between rungs
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	sp.cpuDrv = processCPU() - cpu0
	if lo >= 0 {
		sp.maxRPS = rates[lo]
	}
	var trail []string
	for _, r := range sp.ladder {
		trail = append(trail, fmt.Sprintf("%.0f:%v(p99 %.2fms)", r.rate, r.pass, r.p99/1e6))
	}
	b.logf("ladder %v -> %.0f rps", trail, sp.maxRPS)
}

// rung runs the stream at one rate and judges it.
func (b *bench) rung(rate, secs float64) *rung {
	n := int(rate * secs)
	res := b.load(phase{rate: rate, n: n, gen: b.wl.stream, maxLate: abortLate})
	lat := res.latencies(0, math.MaxInt64)
	r := &rung{rate: rate, res: res, p99: quantile(lat, 0.99)}
	fails := res.failures()
	// Backlog at the end of the rung: requests due but not yet sent when
	// the last one went out, in time at this rate.
	endBacklog := time.Duration(0)
	if m := len(res.outs); m > 0 {
		last := res.outs[m-1]
		endBacklog = time.Duration(last.sent - last.due)
	}
	r.pass = !res.aborted && len(res.outs) == n &&
		float64(fails) <= maxFailFrac*float64(n) &&
		r.p99 <= float64(latencyLimit) &&
		endBacklog <= latencyLimit
	return r
}

// replicaSummary is what the metrics need of a replica build.
type replicaSummary struct {
	gen         uint64
	wall        time.Duration
	docsSeen    int64
	docs, terms int
}

// checkReplicas rebuilds every generation in process from the inputs
// the server read, checks /stats' document and term counts and the
// probe answers against it, and returns the replicas' timings.
func (b *bench) checkReplicas() ([]replicaSummary, error) {
	gens := make([]uint64, 0, len(b.inputs))
	for g := range b.inputs {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	var out []replicaSummary
	for _, g := range gens {
		arch, err := b.archiveAt(g)
		if err != nil {
			return nil, err
		}
		r, err := buildReplica(b.inputs[g].store, arch, g, b.tr)
		if err != nil {
			return nil, fmt.Errorf("replica of generation %d: %w", g, err)
		}
		os.RemoveAll(arch)
		if st := b.served[g]; st.Documents != r.ix.NumDocs() || st.Terms != r.ix.NumTerms() {
			b.fail(fmt.Errorf("generation %d: /stats has %d documents and %d terms, replica %d and %d",
				g, st.Documents, st.Terms, r.ix.NumDocs(), r.ix.NumTerms()))
		}
		for _, p := range b.probes[g] {
			want, err := r.search(p.q.q, p.q.k, p.q.rank)
			if err != nil {
				return nil, err
			}
			if err := compareHits(p.body, want); err != nil {
				b.fail(fmt.Errorf("generation %d probe %s: %w", g, p.q.path(), err))
			}
		}
		if g == 1 && b.cfg.trace {
			b.kernel(r)
		}
		// Keep only the summary; the index is garbage after the checks.
		out = append(out, replicaSummary{gen: g, wall: r.wall, docsSeen: r.docsSeen,
			docs: r.ix.NumDocs(), terms: r.ix.NumTerms()})
	}
	return out, nil
}

// archiveAt reconstructs the archive as it was when generation g was
// built: every file cut back to its recorded size.
func (b *bench) archiveAt(g uint64) (string, error) {
	dst := filepath.Join(b.dir, fmt.Sprintf("pages-g%d", g))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	for name, size := range b.inputs[g].files {
		if err := copyPrefix(filepath.Join(b.archive, name), filepath.Join(dst, name), size); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// copyPrefix copies the first n bytes of src to dst.
func copyPrefix(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, in, n); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

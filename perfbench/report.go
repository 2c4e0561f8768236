package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// kernel times the search kernel in process on generation 1's replica:
// ShardedIndex.SearchContext over the workload's own query stream with
// the options the server builds for each request.
func (b *bench) kernel(r *replica) {
	lat := make([]float64, 0, b.cfg.kernelQs)
	ctx := context.Background()
	for i := 0; i < b.cfg.kernelQs; i++ {
		q := b.wl.stream(uint64(i))
		opts := r.options(q.k, q.rank)
		t0 := time.Now()
		_, err := r.sx.SearchContext(ctx, q.q, opts)
		d := time.Since(t0)
		if err != nil {
			b.fail(fmt.Errorf("kernel query %q: %w", q.q, err))
			return
		}
		lat = append(lat, float64(d)/1e3)
	}
	b.put("search.kernel_us_p50", quantile(lat, 0.5), "us")
	b.put("search.kernel_us_p99", quantile(lat, 0.99), "us")
}

func (b *bench) put(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// report turns the run into metrics: the end-to-end set, or with -trace
// the per-layer set.
func (b *bench) report(setups []float64, rss float64, sp *searchPhases, reps []replicaSummary) {
	var refresh, fresh []float64
	for _, c := range b.cycles {
		refresh = append(refresh, c.refresh.Seconds())
		fresh = append(fresh, c.fresh.Seconds())
	}
	var rates []float64
	var bodyBytes int64
	for _, i := range b.measured {
		c := b.crawls[i]
		rates = append(rates, float64(c.pages)/c.wall.Seconds())
	}
	for _, c := range b.crawls {
		bodyBytes += c.bodyBytes
	}
	disk, segments, err := dirBytes(b.archive)
	if err != nil {
		b.fail(fmt.Errorf("archive size: %w", err))
	}
	p50, p99 := b.searchLatency(sp.fixed)
	e2e := map[string]metric{
		"setup_s":                     {median(setups), "s"},
		"search_p50_ms":               {p50 / 1e6, "ms"},
		"refresh_s":                   {median(refresh), "s"},
		"freshness_s":                 {median(fresh), "s"},
		"crawl_pages_per_s":           {median(rates), "1/s"},
		"archive_bytes_per_body_byte": {float64(disk) / float64(bodyBytes), "B/B"},
		"server_rss_mb":               {rss, "MiB"},
	}
	names := make([]string, 0, len(e2e))
	for n := range e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.logf("%-28s %14.6f %s", n, e2e[n].Value, e2e[n].Unit)
	}
	if !b.cfg.trace {
		b.metrics = e2e
		return
	}

	spans := b.tr.snapshot()
	self := selfTimes(spans)
	measured := map[int]bool{}
	for _, i := range b.measured {
		measured[i+1] = true // crawl spans carry the crawl number as cycle
	}
	perCrawl := func(name string) []float64 {
		sum := map[int]float64{}
		for _, s := range spans {
			if s.Name == name && measured[s.Cycle] {
				sum[s.Cycle] += self[s.ID].Seconds()
			}
		}
		out := make([]float64, 0, len(sum))
		for _, v := range sum {
			out = append(out, v)
		}
		sort.Float64s(out)
		return out
	}
	var puts []float64
	for _, s := range spans {
		if s.Name == "pagestore.put" && measured[s.Cycle] {
			puts = append(puts, float64(s.dur())/1e3)
		}
	}
	var fetched, retries, errs int
	for _, i := range b.measured {
		st := b.crawls[i].stats
		fetched += st.Fetched
		retries += st.Retries
		errs += st.Errors
	}
	b.put("crawler.crawl_s", median(perCrawl("crawler.crawl")), "s")
	b.put("crawler.fetched", float64(fetched), "count")
	b.put("crawler.retries", float64(retries), "count")
	b.put("crawler.errors", float64(errs), "count")
	b.put("webserver.handler_s", median(perCrawl("webserver.handler")), "s")
	b.put("pagestore.put_s", median(perCrawl("pagestore.put")), "s")
	b.put("pagestore.put_p99_us", quantile(puts, 0.99), "us")
	b.put("pagestore.puts", float64(len(puts)), "count")
	b.put("pagestore.sync_s", median(perCrawl("pagestore.sync")), "s")
	b.put("pagestore.disk_bytes", float64(disk), "B")
	b.put("pagestore.segments", float64(segments), "count")
	b.put("snapshot.write_s", median(secs(b.writes)), "s")
	if fi, err := os.Stat(b.store); err == nil {
		b.put("snapshot.file_bytes", float64(fi.Size()), "B")
	} else {
		b.fail(err)
	}

	// Replica stages: medians over every generation built.
	stage := func(name string) float64 {
		var v []float64
		for _, s := range spans {
			if s.Name == name {
				v = append(v, s.dur().Seconds())
			}
		}
		return median(v)
	}
	for _, st := range []struct{ span, metric string }{
		{"pagestore.open", "pagestore.open_s"},
		{"snapshot.read", "snapshot.read_s"},
		{"snapshot.align", "snapshot.align_s"},
		{"quality.estimate", "quality.estimate_s"},
		{"corpus.extract", "corpus.extract_s"},
		{"search.add", "search.add_s"},
		{"search.freeze", "search.freeze_s"},
	} {
		b.put(st.metric, stage(st.span), "s")
	}
	last := reps[len(reps)-1]
	b.put("corpus.docs_seen", float64(last.docsSeen), "count")
	b.put("corpus.docs_kept", float64(last.docs), "count")
	b.put("corpus.kept_frac", float64(last.docs)/float64(last.docsSeen), "frac")
	b.put("search.docs", float64(last.docs), "count")
	b.put("search.terms", float64(last.terms), "count")

	// The search tail and the ladder: too noisy on a shared 2-vCPU box
	// to gate a change, reported here (see README.md).
	b.put("search_p99_ms", p99/1e6, "ms")
	b.put("search_max_rps", sp.maxRPS, "1/s")

	// /stats deltas over the pure search phases.
	st := sp.stats
	b.put("qualityserve.cache_hit_frac", float64(st.Hits)/math.Max(float64(st.Admitted), 1), "frac")
	b.put("qualityserve.searches", float64(st.Searches), "count")
	b.put("qualityserve.coalesced", float64(st.Coalesced), "count")
	b.put("qualityserve.evictions", float64(st.Evictions), "count")
	b.put("qualityserve.admitted", float64(st.Admitted), "count")
	b.put("qualityserve.shed", float64(st.Shed), "count")
	b.put("qualityserve.cpu_us_per_req", float64(sp.cpuSrv)/1e3/math.Max(float64(sp.srvReqs), 1), "us")
	b.put("driver.cpu_us_per_req", float64(sp.cpuDrv)/1e3/math.Max(float64(sp.ladReqs), 1), "us")
	b.put("driver.late_p99_ms", quantile(sp.fixed.lateness(), 0.99)/1e6, "ms")
	b.put("driver.backlog_max", float64(sp.fixed.backlogMax(b.wl.refRate)), "count")
	b.mu.Lock()
	b.put("search_fail_frac", float64(b.failed)/math.Max(float64(b.attempted), 1), "frac")
	b.mu.Unlock()

	b.attributeRefresh(spans, self, e2e["refresh_s"].Value)
	b.overhead(spans)
}

// windowRequests is the size of a latency window: the p99 of 1000
// requests has ten samples beyond it.
const windowRequests = 1000

// searchLatency returns the p50 and p99 latency from due time, in ns, of
// the reference-rate stream: the median over windows of each window's
// quantile, so one stall on a shared box moves one window, not the
// metric. On the query workloads the windows are consecutive runs of
// windowRequests requests of the fixed-rate phase. On recrawl each
// window is one ingest cycle, from the start of its crawl until the
// stream's first answer from the generation it produced, so every window
// carries a crawl and a refresh.
func (b *bench) searchLatency(p *phaseResult) (p50, p99 float64) {
	var windows [][]float64
	if b.wl.recrawl {
		for _, c := range b.cycles {
			from := int64(c.crawlStart.Sub(p.start))
			windows = append(windows, p.latencies(from, from+int64(c.fresh)))
		}
	} else {
		all := p.latencies(0, math.MaxInt64)
		for len(all) >= 2*windowRequests {
			windows = append(windows, all[:windowRequests])
			all = all[windowRequests:]
		}
		windows = append(windows, all)
	}
	var q50, q99 []float64
	for _, lat := range windows {
		if len(lat) > 0 {
			q50 = append(q50, quantile(lat, 0.50))
			q99 = append(q99, quantile(lat, 0.99))
		}
	}
	b.logf("window p50s (ms): %s", fmtMs(q50))
	b.logf("window p99s (ms): %s", fmtMs(q99))
	return median(q50), median(q99)
}

func fmtMs(ns []float64) string {
	parts := make([]string, len(ns))
	for i, v := range ns {
		parts[i] = fmt.Sprintf("%.2f", v/1e6)
	}
	return strings.Join(parts, " ")
}

// attributeRefresh splits refresh_s into the replica's spans and the
// rest. refresh_s is the median over the cycles — the middle cycle, or
// the mean of the middle two — so the replica side is the same: the
// build of the generation each middle cycle produced, timed stage by
// stage and averaged. qualityserve.refresh_unattributed_s is what the
// stages do not cover, and the two add up to refresh_s.
func (b *bench) attributeRefresh(spans []span, self map[int]time.Duration, refreshS float64) {
	cs := append([]*cycleResult(nil), b.cycles...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].refresh < cs[j].refresh })
	mid := cs[(len(cs)-1)/2 : len(cs)/2+1]
	stages := map[string]float64{}
	var order []string
	var attributed float64
	for _, c := range mid {
		var root span
		for _, s := range spans {
			if s.Name == "replica.build" && uint64(s.Cycle) == c.gen {
				root = s
			}
		}
		if root.ID == 0 {
			b.fail(fmt.Errorf("no replica span for generation %d", c.gen))
			return
		}
		attributed += root.dur().Seconds() / float64(len(mid))
		add := func(name string, d time.Duration) {
			if _, ok := stages[name]; !ok {
				order = append(order, name)
			}
			stages[name] += d.Seconds() / float64(len(mid))
		}
		for _, s := range spans {
			if s.Parent == root.ID {
				add(s.Name, s.dur())
			}
		}
		add("replica.build(self)", self[root.ID])
	}
	parts := make([]string, len(order))
	for i, name := range order {
		parts[i] = fmt.Sprintf("%s %.4f", name, stages[name])
	}
	unattributed := refreshS - attributed
	b.put("qualityserve.refresh_unattributed_s", unattributed, "s")
	b.logf("refresh_s %.4fs = replica spans %.4fs [%s] + unattributed %.4fs",
		refreshS, attributed, strings.Join(parts, ", "), unattributed)
}

// overhead prints the tracing-overhead line: traced minus untraced on
// the two paths where this process records spans. The newest state is
// crawled twice more each way into scratch archives — the handler, Put
// and Sync spans sit on the crawl's critical path, so crawl_pages_per_s
// is the end-to-end figure they can move — and the last generation's
// replica is rebuilt untraced against its traced build. qualityserve
// runs untraced, so the search and refresh figures carry no tracing cost
// beyond the CPU the spans take from the box.
func (b *bench) overhead(spans []span) {
	crawlRate := func(tr *tracer, i int) float64 {
		dir := filepath.Join(b.dir, fmt.Sprintf("overhead-%d", i))
		defer os.RemoveAll(dir)
		cs, err := crawlInto(context.Background(), b.last, dir, tr, 0)
		if err != nil {
			b.fail(fmt.Errorf("overhead crawl: %w", err))
			return math.NaN()
		}
		return float64(cs.pages) / cs.wall.Seconds()
	}
	var plain, traced []float64
	for i := 0; i < 2; i++ {
		plain = append(plain, crawlRate(nil, 2*i))
		traced = append(traced, crawlRate(newTracer(true), 2*i+1))
	}
	crawlPlain, crawlTraced := median(plain), median(traced)

	g := b.gen
	arch, err := b.archiveAt(g)
	if err != nil {
		b.fail(err)
		return
	}
	defer os.RemoveAll(arch)
	r, err := buildReplica(b.inputs[g].store, arch, g, nil)
	if err != nil {
		b.fail(err)
		return
	}
	var build time.Duration
	for _, s := range spans {
		if s.Name == "replica.build" && uint64(s.Cycle) == g {
			build = s.dur()
		}
	}
	b.logf("tracing overhead (%s): crawl %.0f pages/s traced, %.0f untraced (%+.1f%%); replica build %.4fs traced, %.4fs untraced (%+.1f%%)",
		b.cfg.workload, crawlTraced, crawlPlain, 100*(crawlTraced/crawlPlain-1),
		build.Seconds(), r.wall.Seconds(), 100*(build.Seconds()/r.wall.Seconds()-1))
}

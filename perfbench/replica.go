package main

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"pagequality/internal/corpus"
	"pagequality/internal/crawler"
	"pagequality/internal/pagerank"
	"pagequality/internal/pagestore"
	"pagequality/internal/quality"
	"pagequality/internal/search"
	"pagequality/internal/snapshot"
)

// qualityserve's defaults: -snaps 3, -c 1, -maxtrend 0.3, -shards 1,
// -shard-workers 0, and the estimator settings run() fixes.
var serverQCfg = quality.Config{C: 1.0, MinChangeFrac: 0.05, ApplyTrendToDecreasing: true, MaxTrend: 0.3}

const serverSnaps = 3

// replica is the benchmark's in-process copy of one qualityserve
// generation. qualityserve is package main, so its refresh cannot be
// timed from outside stage by stage; the replica repeats the build with
// the same public calls loadGeneration makes, on the same inputs, and
// answers the probe queries the server's responses are checked against.
type replica struct {
	gen  uint64
	ix   *search.Index
	sx   *search.ShardedIndex
	urls []string
	qual []float64
	pr   []float64

	docsSeen int64 // documents the Extract projection looked at
	wall     time.Duration
}

// buildReplica mirrors qualityserve's loadGeneration: snapshot.ReadFile →
// snapshot.Align → quality.FromAlignedIncremental → pagestore.Open →
// corpus.Extract (+ crawler.ExtractLinks) → search.Index Add → Freeze →
// Shard. Each stage is a span under a "replica.build" root.
func buildReplica(storePath, archiveDir string, gen uint64, tr *tracer) (*replica, error) {
	cycle := int(gen)
	start := time.Now()
	root := tr.begin("replica.build", 0, cycle)
	stage := func(name string) spanRef { return tr.begin(name, root.id, cycle) }

	sp := stage("snapshot.read")
	snaps, err := snapshot.ReadFile(storePath)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = stage("snapshot.align")
	al, err := snapshot.Align(snaps)
	sp.end()
	if err != nil {
		return nil, err
	}
	if serverSnaps > al.NumSnapshots() {
		return nil, fmt.Errorf("replica: snaps=%d with %d snapshots", serverSnaps, al.NumSnapshots())
	}
	sp = stage("quality.estimate")
	est, ranks, err := quality.FromAlignedIncremental(al, serverSnaps,
		pagerank.IncrementalOptions{Options: pagerank.Options{Variant: pagerank.VariantPaper}}, serverQCfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	cur := ranks[serverSnaps-1]
	label := al.Labels[serverSnaps-1]

	sp = stage("pagestore.open")
	arch, err := pagestore.Open(archiveDir, pagestore.Options{})
	sp.end()
	if err != nil {
		return nil, err
	}
	defer arch.Close()

	byURL := make(map[string]int, len(al.URLs))
	for i, u := range al.URLs {
		byURL[u] = i
	}
	prefix := label + "/"
	type indexable struct {
		canonical string
		body      string
		ai        int
	}
	var seen atomic.Int64
	sp = stage("corpus.extract")
	docs, err := corpus.Extract(arch, func(d corpus.Doc) (indexable, bool) {
		seen.Add(1)
		if !strings.HasPrefix(d.Key, prefix) {
			return indexable{}, false
		}
		_, canonical := crawler.ExtractLinks(string(d.Body))
		if canonical == "" {
			canonical = d.Key[len(prefix):]
		}
		ai, ok := byURL[canonical]
		if !ok {
			return indexable{}, false
		}
		return indexable{canonical: canonical, body: string(d.Body), ai: ai}, true
	}, corpus.Options{})
	sp.end()
	if err != nil {
		return nil, err
	}

	r := &replica{gen: gen, ix: search.NewIndex(), docsSeen: seen.Load()}
	sp = stage("search.add")
	for _, d := range docs {
		if doc := r.ix.Add(d.body); doc != len(r.urls) {
			sp.end()
			return nil, fmt.Errorf("replica: document id drift")
		}
		r.urls = append(r.urls, d.canonical)
		r.qual = append(r.qual, est.Q[d.ai])
		r.pr = append(r.pr, cur[d.ai])
	}
	sp.end()
	if r.ix.NumDocs() == 0 {
		return nil, fmt.Errorf("replica: no indexable documents")
	}
	sp = stage("search.freeze")
	r.ix.Freeze()
	sp.end()
	sp = stage("search.shard")
	r.sx, err = r.ix.Shard(1, 0)
	sp.end()
	if err != nil {
		return nil, err
	}
	root.end()
	r.wall = time.Since(start)
	return r, nil
}

// options returns the search options qualityserve's /search builds for
// (k, rank), with k clamped to the document count as the server does.
func (r *replica) options(k int, rank string) search.Options {
	if nd := r.ix.NumDocs(); k > nd {
		k = nd
	}
	opts := search.Options{TopK: k}
	switch rank {
	case "", "quality":
		opts.Authority = r.qual
		opts.AuthorityWeight = 0.7
	case "pagerank":
		opts.Authority = r.pr
		opts.AuthorityWeight = 0.7
	}
	return opts
}

// search answers one query the way the server would, as decoded hits.
func (r *replica) search(q string, k int, rank string) ([]hitJSON, error) {
	hits, err := r.sx.SearchContext(context.Background(), q, r.options(k, rank))
	if err != nil {
		return nil, err
	}
	out := make([]hitJSON, len(hits))
	for i, h := range hits {
		out[i] = hitJSON{URL: r.urls[h.Doc], Score: h.Score, Relevance: h.Relevance, Quality: r.qual[h.Doc], PageRank: r.pr[h.Doc]}
	}
	return out, nil
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pagequality/internal/crawler"
	"pagequality/internal/graph"
	"pagequality/internal/pagestore"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
	"pagequality/internal/webserver"
)

// scale sizes the simulated Web. The query workloads and recrawl share
// it; tests shrink it.
type scale struct {
	Sites        int
	PagesPerSite int
	Users        int
	LinkProb     float64
	BirthRate    float64
	MinWords     int
	MaxWords     int
}

// benchScale is the fixture every workload runs on: about two thousand
// pages and seventy thousand links per snapshot, big enough that a crawl,
// a refresh and a qualityserve start each take about a second on 2 vCPUs.
var benchScale = scale{Sites: 200, PagesPerSite: 8, Users: 3000, LinkProb: 0.05, BirthRate: 40, MinWords: 60, MaxWords: 120}

// weeksBetweenCrawls spaces the simulated crawls.
const weeksBetweenCrawls = 4

// webState is one pre-generated state of the simulated Web: the graph a
// crawl of it will find and the text of every page.
type webState struct {
	label string
	week  float64
	graph *graph.Graph
	texts []string
}

// simulate grows a corpus from seed and captures n states, one per
// crawl, weeksBetweenCrawls apart. It returns the simulation too, for
// its query vocabulary.
func simulate(sc scale, seed int64, n int) ([]webState, *webcorpus.Sim, error) {
	cfg := webcorpus.DefaultConfig()
	cfg.Sites = sc.Sites
	cfg.InitialPagesPerSite = sc.PagesPerSite
	cfg.Users = sc.Users
	cfg.VisitRate = float64(sc.Users)
	cfg.LinkProb = sc.LinkProb
	cfg.BirthRate = sc.BirthRate
	cfg.BurnInWeeks = 20
	cfg.Seed = seed
	cfg.Workers = 2
	sim, err := webcorpus.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	topts := webcorpus.TextOptions{MinWords: sc.MinWords, MaxWords: sc.MaxWords}
	states := make([]webState, n)
	for k := range states {
		week := float64(k * weeksBetweenCrawls)
		sim.AdvanceTo(week)
		states[k] = webState{
			label: fmt.Sprintf("t%d", k+1),
			week:  week,
			graph: sim.Graph().Clone(),
			texts: sim.AllTexts(topts),
		}
	}
	return states, sim, nil
}

// crawlStats is what one crawl of a webState cost and produced.
type crawlStats struct {
	wall      time.Duration // Crawl + Sync, the crawl's critical path
	stats     crawler.Stats
	bodyBytes int64
	pages     int // pages archived
	snap      snapshot.Snapshot
}

// crawlInto serves st on a loopback listener, crawls it with two
// fetchers and archives every body under st.label. The archive is opened
// for this crawl only and closed (synced) before returning, so a
// qualityserve refresh that opens it next sees every record.
func crawlInto(ctx context.Context, st webState, archiveDir string, tr *tracer, cycle int) (*crawlStats, error) {
	ws, err := webserver.New(st.graph, st.texts)
	if err != nil {
		return nil, err
	}
	root := tr.begin("crawler.crawl", 0, cycle)
	rootID := root.id
	handler := http.Handler(ws)
	if tr != nil && tr.on {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sp := tr.begin("webserver.handler", rootID, cycle)
			ws.ServeHTTP(w, r)
			sp.end()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String()

	start := time.Now()
	seeds, err := crawler.FetchSeeds(ctx, client, base+"/seeds.txt")
	if err != nil {
		return nil, err
	}
	arch, err := pagestore.Open(archiveDir, pagestore.Options{})
	if err != nil {
		return nil, err
	}
	var (
		bodyBytes atomic.Int64
		pages     atomic.Int64
		putErr    error
		putMu     sync.Mutex
	)
	res, err := crawler.Crawl(crawler.Config{
		Seeds:       seeds,
		Client:      client,
		Concurrency: 2,
		OnFetch: func(u string, body []byte) {
			sp := tr.begin("pagestore.put", rootID, cycle)
			perr := arch.Put(st.label+"/"+u, pagestore.Meta{FetchedAt: st.week, Status: 200}, body)
			sp.end()
			if perr != nil {
				putMu.Lock()
				putErr = perr
				putMu.Unlock()
				return
			}
			bodyBytes.Add(int64(len(body)))
			pages.Add(1)
		},
	})
	if err != nil {
		arch.Close()
		return nil, err
	}
	sp := tr.begin("pagestore.sync", rootID, cycle)
	err = arch.Sync()
	sp.end()
	if err != nil {
		arch.Close()
		return nil, err
	}
	wall := time.Since(start)
	root.end()
	if err := arch.Close(); err != nil {
		return nil, err
	}
	if putErr != nil {
		return nil, putErr
	}
	return &crawlStats{
		wall:      wall,
		stats:     res.Stats,
		bodyBytes: bodyBytes.Load(),
		pages:     int(pages.Load()),
		snap:      snapshot.Snapshot{Label: st.label, Time: st.week, Graph: res.Graph},
	}, nil
}

// writeStore persists the newest three crawled snapshots as the
// qualityserve store.
func writeStore(path string, snaps []snapshot.Snapshot, tr *tracer, cycle int) error {
	if len(snaps) > 3 {
		snaps = snaps[len(snaps)-3:]
	}
	sp := tr.begin("snapshot.write", 0, cycle)
	defer sp.end()
	return snapshot.WriteFile(path, snaps)
}

// dirBytes returns the total size of the regular files in dir and how
// many of them are pagestore segments.
func dirBytes(dir string) (total int64, segments int, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		total += fi.Size()
		if filepath.Ext(e.Name()) == ".dat" {
			segments++
		}
	}
	return total, segments, nil
}

// canonicalSet is the set of canonical URLs of a crawled snapshot: every
// hit qualityserve returns must name one of them.
func canonicalSet(g *graph.Graph) map[string]bool {
	out := make(map[string]bool, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		out[g.Page(graph.NodeID(i)).URL] = true
	}
	return out
}

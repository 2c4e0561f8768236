package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// serverBin is the qualityserve binary TestMain builds for the end-to-end
// tests.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	serverBin = filepath.Join(dir, "qualityserve")
	build := exec.Command("go", "build", "-o", serverBin, "pagequality/cmd/qualityserve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building qualityserve: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyConfig is a run small enough for a unit test.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 3
	cfg.seconds = 1
	cfg.trace = trace
	cfg.serverBin = serverBin
	cfg.workDir = t.TempDir()
	cfg.scale = scale{Sites: 12, PagesPerSite: 4, Users: 300, LinkProb: 0.1, BirthRate: 4, MinWords: 20, MaxWords: 40}
	cfg.setupRuns = 1
	cfg.cycles = 2
	cfg.recrawlCycles = 2
	cfg.kernelQs = 50
	return cfg
}

// TestEveryWorkloadPrintsEveryMetric runs every workload of
// BENCHMARK.json at tiny scale, untraced and traced, and checks that the
// result is correct and carries every named metric with its unit.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			name := w.Name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				var log strings.Builder
				res, err := run(context.Background(), tinyConfig(t, w.Name, trace), &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s: value %v", m.Name, got.Value)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("result does not encode: %v", err)
				}
			})
		}
	}
}

func sampleHits() []hitJSON {
	return []hitJSON{
		{URL: "http://site000.example/page000001", Score: 0.9, Relevance: 0.5, Quality: 0.25, PageRank: 0.125},
		{URL: "http://site001.example/page000002", Score: 0.7, Relevance: 0.75, Quality: 0.5, PageRank: 0.0625},
		{URL: "http://site002.example/page000003", Score: 0.3, Relevance: 0.25, Quality: 0.125, PageRank: 0.03125},
	}
}

func encode(t *testing.T, hits []hitJSON) []byte {
	t.Helper()
	b, err := json.Marshal(hits)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestCompareHitsAcceptsIdentical(t *testing.T) {
	if err := compareHits(encode(t, sampleHits()), sampleHits()); err != nil {
		t.Fatal(err)
	}
}

func TestCompareHitsRejectsReorderedList(t *testing.T) {
	got := sampleHits()
	got[0], got[1] = got[1], got[0]
	if err := compareHits(encode(t, got), sampleHits()); err == nil {
		t.Fatal("reordered hit list accepted")
	}
}

func TestCompareHitsRejectsFlippedFloatBit(t *testing.T) {
	for field := 0; field < 4; field++ {
		got := sampleHits()
		flip := func(v *float64) { *v = math.Float64frombits(math.Float64bits(*v) ^ 1) }
		switch field {
		case 0:
			flip(&got[1].Score)
		case 1:
			flip(&got[1].Relevance)
		case 2:
			flip(&got[1].Quality)
		case 3:
			flip(&got[1].PageRank)
		}
		if err := compareHits(encode(t, got), sampleHits()); err == nil {
			t.Fatalf("field %d: flipped lowest bit accepted", field)
		}
	}
}

func TestCheckRefreshRejectsNoAdvance(t *testing.T) {
	if err := checkRefresh(3, 4, 4); err != nil {
		t.Fatalf("good refresh rejected: %v", err)
	}
	for _, c := range [][3]uint64{{3, 3, 3}, {3, 5, 5}, {3, 4, 3}} {
		if err := checkRefresh(c[0], c[1], c[2]); err == nil {
			t.Errorf("refresh %v accepted", c)
		}
	}
}

func TestCheckAccounting(t *testing.T) {
	if err := checkAccounting(90, 10, 100); err != nil {
		t.Fatal(err)
	}
	if err := checkAccounting(90, 9, 100); err == nil {
		t.Fatal("lost request accepted")
	}
}

// TestCheckHits pins both paths of checkHits: the in-place scan must take
// the shape encoding/json produces and reject bad bodies itself, not by
// falling back, and it must agree with the decoding path on every body.
func TestCheckHits(t *testing.T) {
	canon := map[string]bool{}
	for _, h := range sampleHits() {
		canon[h.URL] = true
	}
	good := encode(t, sampleHits())
	escaped := []byte(strings.Replace(string(good), `"url":"http://site000`, `"url":"http:\/\/site000`, 1))
	if err := scanHits(good, 10, canon); err != nil {
		t.Errorf("scan of a plain body: %v", err)
	}
	if err := scanHits(escaped, 10, canon); err != errSlowPath {
		t.Errorf("scan of an escaped URL: %v, want the decoding fallback", err)
	}
	for name, body := range map[string][]byte{"plain": good, "escaped": escaped, "empty": []byte("[]\n")} {
		if err := checkHits(body, 10, canon); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := checkHitsDecoded(body, 10, canon); err != nil {
			t.Errorf("%s, decoded: %v", name, err)
		}
	}
	ascending := sampleHits()
	ascending[0], ascending[2] = ascending[2], ascending[0]
	foreign := sampleHits()
	foreign[1].URL = "http://127.0.0.1:8080/p/2.html"
	bad := []struct {
		name string
		body []byte
		k    int
		scan bool // the scan rejects it itself rather than falling back
	}{
		{"ascending", encode(t, ascending), 10, true},
		{"non-canonical", encode(t, foreign), 10, true},
		{"more than k", good, 2, true},
		{"truncated", good[:len(good)/2], 10, false},
	}
	for _, c := range bad {
		if err := checkHits(c.body, c.k, canon); err == nil {
			t.Errorf("%s accepted", c.name)
		}
		if err := checkHitsDecoded(c.body, c.k, canon); err == nil {
			t.Errorf("%s accepted by the decoding path", c.name)
		}
		if err := scanHits(c.body, c.k, canon); c.scan && (err == nil || err == errSlowPath) {
			t.Errorf("%s: scan returned %v, want a rejection", c.name, err)
		}
	}
}

// TestFailedSearchFailsRun: a search that fails outside the ladder makes
// the run incorrect; on a ladder rung it only judges the rung.
func TestFailedSearchFailsRun(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusInternalServerError)
	}))
	defer ts.Close()
	b := &bench{log: io.Discard, srv: &server{addr: strings.TrimPrefix(ts.URL, "http://")}}
	stream := func(uint64) query { return query{q: "chess", k: 10} }
	b.load(phase{rate: 1000, n: 20, gen: stream, maxLate: abortLate})
	if len(b.failures) != 0 || b.failed != 20 {
		t.Fatalf("ladder rung: %d failed, failures %v; want 20 counted and none reported", b.failed, b.failures)
	}
	b.load(phase{rate: 1000, n: 20, gen: stream})
	if len(b.failures) != 1 || b.failed != 40 {
		t.Fatalf("fixed-rate phase: %d failed, failures %v; want 40 counted and one reported", b.failed, b.failures)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "crawl", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "put", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "put", Start: 3 * ms, End: 5 * ms},   // overlaps span 2
		{ID: 4, Parent: 1, Name: "sync", Start: 8 * ms, End: 12 * ms}, // runs past the parent
	}
	self := selfTimes(spans)
	if want := 4 * time.Millisecond; self[1] != want {
		t.Errorf("crawl self time %v, want %v", self[1], want)
	}
	layers := layerSelf(spans)
	if want := 5 * time.Millisecond; layers["put"] != want {
		t.Errorf("put self time %v, want %v", layers["put"], want)
	}
}

func TestTailQueriesAreDeterministicAndLong(t *testing.T) {
	ts := &tailStream{seed: 9, topicWords: []string{"astronomy1", "chess2"}}
	for i := uint64(0); i < 200; i++ {
		q := ts.query(i)
		if q != ts.query(i) {
			t.Fatalf("query %d not deterministic", i)
		}
		if n := len(strings.Fields(q.q)); n < 4 || n > 16 {
			t.Fatalf("query %d has %d terms", i, n)
		}
		if q.k != 50 || q.rank != tailRanks[i%3] {
			t.Fatalf("query %d: k=%d rank=%s", i, q.k, q.rank)
		}
	}
}

// Command perfbench is the repository's end-to-end benchmark. It grows a
// simulated Web from a seed, crawls it over HTTP into a pagestore
// archive and a snapshot store, starts the real qualityserve binary on
// that fixture and drives it with an open-loop query load, checking
// every response. Three workloads:
//
//	query-head  zipf(1.1) over the 820-query head vocabulary, k=10: almost
//	            every request is a cache hit
//	query-tail  distinct 4–16-term queries, k=50, rank modes rotating: every
//	            request runs the search kernel
//	recrawl     a fixed-rate head stream while the benchmark crawls four
//	            new snapshots into the archive and refreshes the server
//
// With -trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with -trace 1 the run records spans around
// the benchmark's calls into each layer and reports the per-layer
// metrics instead, and writes the spans out. perfbench/run.sh builds
// qualityserve and this command and runs it; see perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	workDir   string // work space; each run makes its own subdirectory

	scale         scale
	setupRuns     int // qualityserve starts per run; setup_s is their median
	cycles        int // ingest cycles of the query workloads
	recrawlCycles int // ingest cycles of recrawl
	kernelQs      int // queries timed in process for search.kernel_us_*
}

func defaultConfig() config {
	return config{
		scale:         benchScale,
		setupRuns:     3,
		cycles:        3,
		recrawlCycles: 4,
		kernelQs:      3000,
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: query-head, query-tail or recrawl")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the simulated Web and the query streams")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds of measured load")
	traceFlag := fs.Int("trace", 0, "1: record spans and report per-layer metrics")
	fs.StringVar(&cfg.serverBin, "server", "", "qualityserve binary")
	fs.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "work directory for builds, runs and span dumps")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	if cfg.serverBin == "" || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -server, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(conns, runtime.NumCPU()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()

	res, err := run(context.Background(), cfg, os.Stderr)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result. Correctness failures
// are reported on log and make the result incorrect; errors that stop
// the run are returned.
func run(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, fmt.Sprintf("run-%s-%d-", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, log: log, dir: dir, tr: newTracer(cfg.trace)}
	defer b.stopServer()
	if err := b.execute(ctx); err != nil {
		return nil, err
	}
	// JSON has no Inf or NaN; a metric that is not finite (a latency
	// quantile over failed requests, say) is a failed check, not a value.
	for name, m := range b.metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			b.fail(fmt.Errorf("metric %s is %v", name, m.Value))
			delete(b.metrics, name)
		}
	}
	res := &result{Correct: len(b.failures) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	for _, f := range b.failures {
		fmt.Fprintln(log, "perfbench: CHECK FAILED:", f)
	}
	if cfg.trace {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
		spans := b.tr.snapshot()
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "perfbench: %d spans written to %s\n", len(spans), path)
		printLayerTable(log, spans)
	}
	return res, nil
}

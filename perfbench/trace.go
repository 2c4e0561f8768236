package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name ("crawler.crawl",
// "pagestore.put", ...), the span that caused it (0 = root), the cycle
// it belongs to (0 = fixture/setup, k = recrawl cycle k or generation k
// for replica builds) and its interval in nanoseconds since the tracer's
// epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cycle  int    `json:"cycle"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory and writes them out once, at the end of
// the run. A nil or disabled tracer records nothing: the untraced run
// pays one branch per call site.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t     *tracer
	id    int
	par   int
	cycle int
	name  string
	start int64
}

// begin opens a span under parent (a spanRef id, 0 for a root).
func (t *tracer) begin(name string, parent, cycle int) spanRef {
	if t == nil || !t.on {
		return spanRef{}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	// Reserve the slot so ids stay dense and stable even with
	// concurrent children.
	t.spans = append(t.spans, span{ID: id})
	t.mu.Unlock()
	return spanRef{t: t, id: id, par: parent, cycle: cycle, name: name, start: int64(time.Since(t.epoch))}
}

// end closes the span and returns its duration (0 when tracing is off).
func (r spanRef) end() time.Duration {
	if r.t == nil {
		return 0
	}
	e := int64(time.Since(r.t.epoch))
	r.t.mu.Lock()
	r.t.spans[r.id-1] = span{ID: r.id, Parent: r.par, Cycle: r.cycle, Name: r.name, Start: r.start, End: e}
	r.t.mu.Unlock()
	return time.Duration(e - r.start)
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Name != "" {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals
// (children may overlap when they ran concurrently).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, c := range ch {
			lo, e := max(c.Start, hi), min(c.End, s.End)
			if e > lo {
				covered += e - lo
				hi = e
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerSelf sums self time per span name.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayerTable writes the per-layer self-time table, largest first.
func printLayerTable(w io.Writer, spans []span) {
	self := layerSelf(spans)
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-28s %8s %12s\n", "layer", "spans", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %8d %12.6f\n", n, count[n], self[n].Seconds())
	}
}

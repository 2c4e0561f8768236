package main

import (
	"fmt"

	"pagequality/internal/loadgen"
	"pagequality/internal/randx"
	"pagequality/internal/webcorpus"
)

// workload is one traffic mix: its query stream, the fixed reference
// rate its latency is reported at, and whether recrawl cycles run under
// the stream.
type workload struct {
	name    string
	refRate float64 // requests per second of the fixed-rate phase
	recrawl bool
	stream  func(i uint64) query
}

// headWordsPerTopic sizes the head vocabulary: 20 topics × (1 + 40)
// queries = 820 distinct queries, well under qualityserve's 4096-entry
// cache.
const headWordsPerTopic = 40

// workloadNames lists the workloads in the order they are documented.
var workloadNames = []string{"query-head", "query-tail", "recrawl"}

// newWorkload builds the named workload's query stream from the seed and
// the simulation's vocabulary.
func newWorkload(name string, seed int64, sim *webcorpus.Sim) (*workload, error) {
	head, err := loadgen.NewWorkload(sim.QueryVocab(headWordsPerTopic), 1.1, seed)
	if err != nil {
		return nil, err
	}
	headStream := func(i uint64) query { return query{q: head.Query(i), k: 10, rank: "quality"} }
	switch name {
	case "query-head":
		return &workload{name: name, refRate: 6000, stream: headStream}, nil
	case "query-tail":
		tail := newTailStream(seed, sim)
		return &workload{name: name, refRate: 1500, stream: tail.query}, nil
	case "recrawl":
		return &workload{name: name, refRate: 2000, recrawl: true, stream: headStream}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// tailStream generates distinct long queries: 4–16 terms, each either a
// topic word of a random topic or a background word, k=50, with the rank
// mode rotating quality/pagerank/relevance. Query i is a pure function
// of (seed, i).
type tailStream struct {
	seed       int64
	topicWords []string // every topic word of the topics in use
}

var tailKey = randx.Key("perfbench.tail")

// backgroundWords is the size of webcorpus's shared background
// vocabulary ("common0".."common399").
const backgroundWords = 400

func newTailStream(seed int64, sim *webcorpus.Sim) *tailStream {
	vocab := sim.QueryVocab(headWordsPerTopic)
	nTopics := len(vocab) / (1 + headWordsPerTopic)
	return &tailStream{seed: seed, topicWords: vocab[nTopics:]}
}

var tailRanks = [3]string{"quality", "pagerank", "relevance"}

func (t *tailStream) query(i uint64) query {
	s := randx.NewStream(t.seed, tailKey, i)
	n := 4 + randx.Intn(&s, 13)
	buf := make([]byte, 0, n*12)
	for j := 0; j < n; j++ {
		if j > 0 {
			buf = append(buf, ' ')
		}
		if randx.Intn(&s, 2) == 0 {
			buf = append(buf, t.topicWords[randx.Intn(&s, len(t.topicWords))]...)
		} else {
			buf = fmt.Appendf(buf, "common%d", randx.Intn(&s, backgroundWords))
		}
	}
	return query{q: string(buf), k: 50, rank: tailRanks[i%3]}
}

// probeQueries is the fixed probe set every generation is checked on:
// head queries under each rank mode, long tail queries, and a k beyond
// the document count (the server clamps it).
func probeQueries(seed int64, sim *webcorpus.Sim) []query {
	vocab := sim.QueryVocab(headWordsPerTopic)
	var out []query
	for _, q := range vocab[:6] {
		for _, rank := range tailRanks {
			out = append(out, query{q: q, k: 10, rank: rank})
		}
	}
	tail := newTailStream(seed^0x5eed, sim)
	for i := uint64(0); i < 6; i++ {
		out = append(out, tail.query(i))
	}
	out = append(out, query{q: vocab[0], k: 1000, rank: "quality"})
	return out
}

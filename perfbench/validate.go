package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// hitJSON is one hit of qualityserve's /search response.
type hitJSON struct {
	URL       string  `json:"url"`
	Score     float64 `json:"score"`
	Relevance float64 `json:"relevance"`
	Quality   float64 `json:"quality"`
	PageRank  float64 `json:"pagerank"`
}

// checkHits validates one 200 response body: a JSON hit list of at most
// k hits, scores non-increasing, every URL a canonical URL of the
// generation. It runs on every response the load driver receives, in
// the driver's process on the cores the server uses, so the common
// shape — the one encoding/json produces for hitJSON — is scanned in
// place; anything else (escaped strings, reordered fields) falls back to
// a full decode with the same checks. A 50-hit query-tail body takes
// 7 µs to scan and 123 µs to decode; decoding every body doubled the
// driver's CPU per query-tail request (see README.md).
func checkHits(body []byte, k int, canon map[string]bool) error {
	err := scanHits(body, k, canon)
	if err == errSlowPath {
		return checkHitsDecoded(body, k, canon)
	}
	return err
}

var errSlowPath = errors.New("fall back to a full decode")

// scanHits is checkHits' fast path. It returns errSlowPath on any shape
// it does not recognise.
func scanHits(b []byte, k int, canon map[string]bool) error {
	b = bytes.TrimRight(b, "\n")
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return errSlowPath
	}
	b = b[1 : len(b)-1]
	n := 0
	prev := math.Inf(1)
	for len(b) > 0 {
		if n > 0 {
			if b[0] != ',' {
				return errSlowPath
			}
			b = b[1:]
		}
		const urlKey = `{"url":"`
		if !bytes.HasPrefix(b, []byte(urlKey)) {
			return errSlowPath
		}
		b = b[len(urlKey):]
		end := bytes.IndexByte(b, '"')
		if end < 0 || bytes.IndexByte(b[:end], '\\') >= 0 {
			return errSlowPath
		}
		if !canon[string(b[:end])] {
			return fmt.Errorf("hit %d: %q is not a canonical URL of the generation", n, b[:end])
		}
		b = b[end+1:]
		var score float64
		for i, key := range [4]string{`,"score":`, `,"relevance":`, `,"quality":`, `,"pagerank":`} {
			if !bytes.HasPrefix(b, []byte(key)) {
				return errSlowPath
			}
			b = b[len(key):]
			sep := byte(',')
			if i == 3 {
				sep = '}'
			}
			end := bytes.IndexByte(b, sep)
			if end < 0 {
				return errSlowPath
			}
			if i == 0 {
				v, err := strconv.ParseFloat(string(b[:end]), 64)
				if err != nil {
					return errSlowPath
				}
				score = v
			}
			b = b[end:]
		}
		if len(b) == 0 || b[0] != '}' {
			return errSlowPath
		}
		b = b[1:]
		if score > prev {
			return fmt.Errorf("hit %d: score %v above the previous hit's %v", n, score, prev)
		}
		prev = score
		n++
		if n > k {
			return fmt.Errorf("more than k=%d hits", k)
		}
	}
	return nil
}

// checkHitsDecoded is checkHits with encoding/json.
func checkHitsDecoded(body []byte, k int, canon map[string]bool) error {
	var hits []hitJSON
	if err := json.Unmarshal(body, &hits); err != nil {
		return fmt.Errorf("decode hits: %w", err)
	}
	if len(hits) > k {
		return fmt.Errorf("%d hits for k=%d", len(hits), k)
	}
	for i, h := range hits {
		if !canon[h.URL] {
			return fmt.Errorf("hit %d: %q is not a canonical URL of the generation", i, h.URL)
		}
		if i > 0 && h.Score > hits[i-1].Score {
			return fmt.Errorf("hit %d: score %v above the previous hit's %v", i, h.Score, hits[i-1].Score)
		}
	}
	return nil
}

// compareHits checks a server response against the replica's answer:
// the same URLs in the same order and bit-identical score, relevance,
// quality and pagerank.
func compareHits(body []byte, want []hitJSON) error {
	var got []hitJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode hits: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, replica has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.URL != w.URL:
			return fmt.Errorf("hit %d: url %q, replica %q", i, g.URL, w.URL)
		case math.Float64bits(g.Score) != math.Float64bits(w.Score):
			return fmt.Errorf("hit %d: score %v, replica %v", i, g.Score, w.Score)
		case math.Float64bits(g.Relevance) != math.Float64bits(w.Relevance):
			return fmt.Errorf("hit %d: relevance %v, replica %v", i, g.Relevance, w.Relevance)
		case math.Float64bits(g.Quality) != math.Float64bits(w.Quality):
			return fmt.Errorf("hit %d: quality %v, replica %v", i, g.Quality, w.Quality)
		case math.Float64bits(g.PageRank) != math.Float64bits(w.PageRank):
			return fmt.Errorf("hit %d: pagerank %v, replica %v", i, g.PageRank, w.PageRank)
		}
	}
	return nil
}

// checkRefresh checks that a /refresh advanced the generation by exactly
// one, as both the /refresh response and /stats report it.
func checkRefresh(before, refreshed, stats uint64) error {
	if refreshed != before+1 {
		return fmt.Errorf("/refresh moved generation %d to %d, want %d", before, refreshed, before+1)
	}
	if stats != refreshed {
		return fmt.Errorf("/stats reports generation %d after /refresh returned %d", stats, refreshed)
	}
	return nil
}

// checkAccounting checks /stats admission accounting against the
// requests the benchmark saw answered.
func checkAccounting(admitted, shed, answered uint64) error {
	if admitted+shed != answered {
		return fmt.Errorf("/stats admitted %d + shed %d = %d, benchmark saw %d search requests answered",
			admitted, shed, admitted+shed, answered)
	}
	return nil
}

package corpus

import (
	"sort"

	"pagequality/internal/pagestore"
)

// The verb layer: three structured queries built on Map. All of them
// return key-sorted results, so their output is a pure function of the
// live document set — independent of worker count and of the physical
// segment layout.

// keyed carries a per-document projection with the key that orders it.
type keyed[R any] struct {
	key string
	val R
}

// project runs proj over every live document and returns the kept
// (key, value) pairs sorted by key. Live keys are unique, so the sort
// is a total order.
func project[R any](st *pagestore.Store, proj func(Doc) (R, bool), opts Options) ([]keyed[R], error) {
	parts, err := Map(st, func(_ int, docs []Doc) ([]keyed[R], error) {
		var out []keyed[R]
		for _, d := range docs {
			if v, ok := proj(d); ok {
				out = append(out, keyed[R]{key: d.Key, val: v})
			}
		}
		return out, nil
	}, opts)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	all := make([]keyed[R], 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].key < all[b].key })
	return all, nil
}

// Extract projects a field set out of every live document: proj returns
// the projection and whether to keep it. Results are in key order.
func Extract[R any](st *pagestore.Store, proj func(Doc) (R, bool), opts Options) ([]R, error) {
	pairs, err := project(st, proj, opts)
	if err != nil {
		return nil, err
	}
	out := make([]R, len(pairs))
	for i, p := range pairs {
		out[i] = p.val
	}
	return out, nil
}

// Query returns the keys of the live documents matching pred, sorted.
func Query(st *pagestore.Store, pred func(Doc) bool, opts Options) ([]string, error) {
	pairs, err := project(st, func(d Doc) (struct{}, bool) { return struct{}{}, pred(d) }, opts)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p.key
	}
	return out, nil
}

// scoreChunk is the fixed accumulation chunk for Scores.Total: values
// are summed per 1024-key chunk in key order and the chunk partials are
// folded serially, the same fused-chunk discipline the PageRank and tick
// kernels use. Chunk boundaries depend only on the key count, so Total
// is bit-reproducible for a given live set no matter how the map phase
// was scheduled or how the records are laid out on disk.
const scoreChunk = 1024

// Scores is the result of a Score pass: one float per live document
// (kept docs only), key-ordered, plus their deterministic total.
type Scores struct {
	Keys   []string
	Values []float64
	Total  float64
}

// Score computes score for every live document. Documents for which
// keep is false are skipped (pass nil to keep all).
func Score(st *pagestore.Store, score func(Doc) float64, keep func(Doc) bool, opts Options) (*Scores, error) {
	pairs, err := project(st, func(d Doc) (float64, bool) {
		if keep != nil && !keep(d) {
			return 0, false
		}
		return score(d), true
	}, opts)
	if err != nil {
		return nil, err
	}
	sc := &Scores{
		Keys:   make([]string, len(pairs)),
		Values: make([]float64, len(pairs)),
	}
	for i, p := range pairs {
		sc.Keys[i] = p.key
		sc.Values[i] = p.val
	}
	for lo := 0; lo < len(sc.Values); lo += scoreChunk {
		hi := lo + scoreChunk
		if hi > len(sc.Values) {
			hi = len(sc.Values)
		}
		part := 0.0
		for _, v := range sc.Values[lo:hi] {
			part += v
		}
		sc.Total += part
	}
	return sc, nil
}

package corpus

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pagequality/internal/pagestore"
)

// buildStore writes a multi-segment fixture with overwrites across
// segment boundaries, returning the store and the expected latest body
// per key.
func buildStore(t testing.TB, tiny bool) (*pagestore.Store, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	s, err := pagestore.Open(dir, pagestore.Options{MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(11))
	want := map[string]string{}
	rounds, keys := 5, 40
	if tiny {
		rounds, keys = 1, 3
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < keys; i++ {
			label := "t1"
			if i%3 == 0 {
				label = "t2"
			}
			// Most keys are unique per round (live records span every
			// segment); every fifth key is overwritten each round so the
			// latest-version-wins path is exercised too.
			key := fmt.Sprintf("%s/site-%03d-r%d/page", label, i, round)
			if i%5 == 0 {
				key = fmt.Sprintf("%s/site-%03d/page", label, i)
			}
			filler := make([]byte, 120)
			rng.Read(filler)
			body := fmt.Sprintf("round%d key%03d %x", round, i, filler)
			if err := s.Put(key, pagestore.Meta{FetchedAt: float64(round), Status: 200 + i%2}, []byte(body)); err != nil {
				t.Fatal(err)
			}
			want[key] = body
		}
	}
	if !tiny && len(s.SegmentIDs()) < 3 {
		t.Fatalf("fixture spans only %d segments", len(s.SegmentIDs()))
	}
	return s, want
}

// TestExtractMatchesKeyWalk pins the parity lemma the CLI refactors
// lean on: Extract(identity) is byte-identical to the pre-refactor
// walk — sorted KeysWithPrefix + Get per key.
func TestExtractMatchesKeyWalk(t *testing.T) {
	s, _ := buildStore(t, false)
	prefix := "t2/"

	// Pre-refactor walk.
	type rec struct {
		key  string
		meta pagestore.Meta
		body string
	}
	var want []rec
	for _, k := range s.KeysWithPrefix(prefix) {
		meta, body, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec{k, meta, string(body)})
	}

	for _, workers := range []int{1, 2, 0} {
		got, err := Extract(s, func(d Doc) (rec, bool) {
			if !strings.HasPrefix(d.Key, prefix) {
				return rec{}, false
			}
			return rec{d.Key, d.Meta, string(d.Body)}, true
		}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Extract differs from key walk", workers)
		}
	}
}

// TestExtractLayoutInvariant: compaction rehomes every record; verb
// output must not change.
func TestExtractLayoutInvariant(t *testing.T) {
	s, _ := buildStore(t, false)
	before, err := Extract(s, func(d Doc) (string, bool) { return d.Key + ":" + string(d.Body), true }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := Extract(s, func(d Doc) (string, bool) { return d.Key + ":" + string(d.Body), true }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("Extract output changed across Compact")
	}
}

// docScore derives a float from the body in a way that would expose any
// reordering of the accumulation (values differ wildly in magnitude).
func docScore(d Doc) float64 {
	h := 0.0
	for i, b := range d.Body {
		h += float64(b) * math.Pow(1.0000173, float64(i%97))
	}
	return h * math.Exp(float64(len(d.Key)%7))
}

// TestScoreDeterministicAcrossWorkers pins the acceptance criterion:
// Score output (per-page floats and the chunked Total) is
// Float64bits-identical at workers 1, 2 and GOMAXPROCS.
func TestScoreDeterministicAcrossWorkers(t *testing.T) {
	s, want := buildStore(t, false)
	ref, err := Score(s, docScore, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Keys) != len(want) {
		t.Fatalf("scored %d docs, want %d", len(ref.Keys), len(want))
	}
	for _, workers := range []int{2, 0} {
		got, err := Score(s, docScore, nil, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Total) != math.Float64bits(ref.Total) {
			t.Fatalf("workers=%d: Total bits differ", workers)
		}
		for i := range ref.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(ref.Values[i]) {
				t.Fatalf("workers=%d: Values[%d] bits differ", workers, i)
			}
			if got.Keys[i] != ref.Keys[i] {
				t.Fatalf("workers=%d: Keys[%d] differ", workers, i)
			}
		}
	}
	// And across the physical layout.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := Score(s, docScore, nil, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Total) != math.Float64bits(ref.Total) {
		t.Fatal("Total bits changed across Compact")
	}
}

// TestScoreKeepFilter: keep prunes documents before scoring.
func TestScoreKeepFilter(t *testing.T) {
	s, _ := buildStore(t, false)
	sc, err := Score(s, func(Doc) float64 { return 1 }, func(d Doc) bool {
		return strings.HasPrefix(d.Key, "t2/")
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sc.Keys {
		if !strings.HasPrefix(k, "t2/") {
			t.Fatalf("kept key %q", k)
		}
	}
	if int(sc.Total) != len(sc.Keys) {
		t.Fatalf("Total %v with %d keys", sc.Total, len(sc.Keys))
	}
}

// TestQueryMatchesFilterWalk: Query == sorted keys of matching docs.
func TestQueryMatchesFilterWalk(t *testing.T) {
	s, want := buildStore(t, false)
	pred := func(d Doc) bool { return d.Meta.Status == 201 }
	got, err := Query(s, pred, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var exp []string
	for k := range want {
		meta, _, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Status == 201 {
			exp = append(exp, k)
		}
	}
	sort.Strings(exp)
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("Query = %d keys, walk = %d keys", len(got), len(exp))
	}
}

// TestMapSegmentPartition: every live doc reaches exactly one mapper
// call, in offset order, and results fold in segment order.
func TestMapSegmentPartition(t *testing.T) {
	s, want := buildStore(t, false)
	counts, err := Map(s, func(seg int, docs []Doc) (int, error) {
		return len(docs), nil
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(want) {
		t.Fatalf("mapped %d docs, want %d", total, len(want))
	}
	ids := s.SegmentIDs()
	if len(counts) != len(ids) {
		t.Fatalf("%d results for %d segments", len(counts), len(ids))
	}
}

// TestMapError: a mapper error aborts the pass; the earliest segment's
// error wins.
func TestMapError(t *testing.T) {
	s, _ := buildStore(t, false)
	ids := s.SegmentIDs()
	boom := errors.New("boom")
	_, err := Map(s, func(seg int, docs []Doc) (int, error) {
		if seg == ids[0] || seg == ids[len(ids)-1] {
			return 0, fmt.Errorf("segment %d: %w", seg, boom)
		}
		return len(docs), nil
	}, Options{Workers: 0})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("segment %d:", ids[0])) {
		t.Fatalf("err %q does not name the earliest failing segment", err)
	}
}

// TestVerbsOnTinyStore: fewer segments than workers, single segment,
// empty results.
func TestVerbsOnTinyStore(t *testing.T) {
	s, want := buildStore(t, true)
	keys, err := Query(s, func(Doc) bool { return true }, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("%d keys, want %d", len(keys), len(want))
	}
	none, err := Query(s, func(Doc) bool { return false }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("empty predicate matched %d", len(none))
	}
}

package fastbit

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
)

// recordingReader is a MemReader that remembers every position it was
// asked for, i.e. every candidate check's raw read.
type recordingReader struct {
	MemReader
	read []uint64
}

func (r *recordingReader) ValuesAt(name string, positions []uint64) ([]float64, error) {
	r.read = append(r.read, positions...)
	return r.MemReader.ValuesAt(name, positions)
}

// clip returns the elements of the sorted slice that lie in [lo, hi).
func clip(pos []uint64, lo, hi uint64) []uint64 {
	a := sort.Search(len(pos), func(i int) bool { return pos[i] >= lo })
	b := sort.Search(len(pos), func(i int) bool { return pos[i] >= hi })
	return pos[a:b]
}

func sortedCopy(p []uint64) []uint64 {
	out := append([]uint64(nil), p...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// subMultiset reports whether sorted a is contained in sorted b, counting
// repeats.
func subMultiset(a, b []uint64) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			return false
		}
		j++
	}
	return true
}

func equalPos(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rangeQueries builds single-term intervals on px whose hit fractions
// span 1e-5 to 0.5, plus != and IN on the non-ID variable x; and compound
// queries: two-sided px bands of the same fractions and mixed terms.
func rangeQueries(mem MemReader) (single, compound []string) {
	px := append([]float64(nil), mem["px"]...)
	sort.Float64s(px)
	n := len(px)
	q := func(f float64) float64 { return px[min(n-1, int(f*float64(n)))] }
	for _, frac := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5} {
		k := max(1, int(math.Ceil(frac*float64(n))))
		single = append(single,
			fmt.Sprintf("px >= %v", px[n-k]),
			fmt.Sprintf("px < %v", px[k]))
		compound = append(compound,
			fmt.Sprintf("px > %v && px <= %v", q(0.3), px[min(n-1, int(0.3*float64(n))+k)]))
	}
	x := mem["x"]
	single = append(single,
		fmt.Sprintf("x != %v", x[17]),
		fmt.Sprintf("x in (%v, %v, %v, 12345)", x[3], x[n/2], x[n-2]),
		fmt.Sprintf("!(x in (%v, %v))", x[1], x[n-1]))
	compound = append(compound,
		fmt.Sprintf("px > %v && y > 0", q(0.5)),
		fmt.Sprintf("px > %v && x < %v", q(0.99), x[0]),
		fmt.Sprintf("px > %v || y < %v", q(0.999), -2e-5),
		fmt.Sprintf("x != %v && px < %v", x[5], q(0.2)))
	return single, compound
}

// testRanges are the row ranges of the property: empty, single-row,
// around a colstore chunk boundary, WAH-group aligned, whole, and random.
func testRanges(n uint64, rng *rand.Rand) [][2]uint64 {
	c := uint64(colstore.DefaultChunkRows)
	rs := [][2]uint64{
		{0, 0}, {n / 2, n / 2}, {n, n},
		{0, 1}, {n - 1, n}, {c, c + 1}, {777, 778},
		{c - 1000, c + 1000}, {0, c}, {c, n},
		{31 * 5, 31 * 700}, {30, 32},
		{0, n},
	}
	for i := 0; i < 6; i++ {
		a, b := uint64(rng.Int63n(int64(n+1))), uint64(rng.Int63n(int64(n+1)))
		if a > b {
			a, b = b, a
		}
		rs = append(rs, [2]uint64{a, b})
	}
	return rs
}

// TestSelectRangeMatchesClippedWhole is the range-evaluation property: on
// eager and lazy indexes, the positions a range evaluation returns are the
// whole-step positions clipped to the range, and its candidate checks
// read only in-range records — for a single term, exactly the whole-step
// candidates inside the range; for a compound query, at most those (a
// conjunction may short-circuit sooner on an empty range).
func TestSelectRangeMatchesClippedWhole(t *testing.T) {
	n := colstore.DefaultChunkRows + 4321 // spans one chunk boundary
	si, mem, _ := buildTestStep(t, n, 5, IndexOptions{Bins: 32})
	path := filepath.Join(t.TempDir(), "step.idx")
	if err := si.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	indexes := map[string]func(RawReader) *Evaluator{"eager": si.Evaluator, "lazy": func(raw RawReader) *Evaluator { return ls.CostEvaluator(raw, nil) }}

	single, compound := rangeQueries(mem)
	ranges := testRanges(uint64(n), rand.New(rand.NewSource(9)))
	ctx := context.Background()
	for name, evaluator := range indexes {
		for i, src := range append(single, compound...) {
			isSingle := i < len(single)
			e := query.MustParse(src)
			wholeRaw := &recordingReader{MemReader: mem}
			whole, err := evaluator(wholeRaw).SelectCtx(ctx, e, 0, uint64(n))
			if err != nil {
				t.Fatalf("%s %q: %v", name, src, err)
			}
			wholeRead := sortedCopy(wholeRaw.read)
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				raw := &recordingReader{MemReader: mem}
				ev := evaluator(raw)
				got, err := ev.SelectCtx(ctx, e, lo, hi)
				if err != nil {
					t.Fatalf("%s %q [%d,%d): %v", name, src, lo, hi, err)
				}
				if want := clip(whole, lo, hi); !equalPos(got, want) {
					t.Fatalf("%s %q [%d,%d): %d positions, want %d", name, src, lo, hi, len(got), len(want))
				}
				read := sortedCopy(raw.read)
				if ev.Stats.CandidateChecks != uint64(len(read)) {
					t.Fatalf("%s %q [%d,%d): CandidateChecks=%d but %d raw reads",
						name, src, lo, hi, ev.Stats.CandidateChecks, len(read))
				}
				if len(clip(read, lo, hi)) != len(read) {
					t.Fatalf("%s %q [%d,%d): candidate check outside the range", name, src, lo, hi)
				}
				inRange := clip(wholeRead, lo, hi)
				if isSingle && !equalPos(read, inRange) || !subMultiset(read, inRange) {
					t.Fatalf("%s %q [%d,%d): checked %d records, want the %d in-range whole-step candidates",
						name, src, lo, hi, len(read), len(inRange))
				}
			}
		}
	}
}

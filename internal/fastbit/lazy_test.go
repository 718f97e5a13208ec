package fastbit

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/query"
)

func writeLazyFixture(t *testing.T) (string, *StepIndex, MemReader, []int64) {
	t.Helper()
	si, mem, ids := buildTestStep(t, 3000, 71, IndexOptions{Bins: 32})
	path := filepath.Join(t.TempDir(), "step.idx")
	if err := si.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path, si, mem, ids
}

func TestLazyStepDirectory(t *testing.T) {
	path, si, _, _ := writeLazyFixture(t)
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if ls.N() != si.N {
		t.Fatalf("N = %d, want %d", ls.N(), si.N)
	}
	if ls.IDVar() != "id" {
		t.Fatalf("IDVar = %q", ls.IDVar())
	}
	cols := ls.Columns()
	if len(cols) != len(si.Columns) {
		t.Fatalf("Columns = %v", cols)
	}
	if !ls.HasColumn("px") || ls.HasColumn("nope") {
		t.Fatal("HasColumn wrong")
	}
	// Opening reads only the directory, far less than the file size.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if ls.IndexBytesRead() != 0 {
		t.Fatalf("open loaded %d section bytes", ls.IndexBytesRead())
	}
	_ = st
}

func TestLazyStepLoadsOnDemand(t *testing.T) {
	path, _, mem, ids := writeLazyFixture(t)
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	// An ID lookup loads only the identifier section.
	idIdx, err := ls.IDIndex()
	if err != nil {
		t.Fatal(err)
	}
	pos := idIdx.Lookup([]int64{ids[7]})
	if len(pos) != 1 || pos[0] != 7 {
		t.Fatalf("Lookup = %v", pos)
	}
	afterID := ls.IndexBytesRead()
	if afterID == 0 {
		t.Fatal("ID section not counted")
	}
	st, _ := os.Stat(path)
	if afterID >= uint64(st.Size()) {
		t.Fatalf("ID lookup loaded %d of %d bytes — not lazy", afterID, st.Size())
	}
	// No column section was touched: loading every column afterwards must
	// add the remaining bulk of the file.
	for _, name := range ls.Columns() {
		if _, err := ls.ColumnCost(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	if full := ls.IndexBytesRead(); full <= afterID || full >= uint64(st.Size()) {
		t.Fatalf("sections loaded: id=%d full=%d file=%d", afterID, full, st.Size())
	}
	// Reset expectations for the per-column checks below.
	ls.Close()
	ls, err = OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if _, err := ls.IDIndex(); err != nil {
		t.Fatal(err)
	}
	afterID = ls.IndexBytesRead()

	// Loading a column adds its section once; a repeat is cached.
	if _, err := ls.ColumnCost("px", nil); err != nil {
		t.Fatal(err)
	}
	afterPx := ls.IndexBytesRead()
	if afterPx <= afterID {
		t.Fatal("px section not loaded")
	}
	if _, err := ls.ColumnCost("px", nil); err != nil {
		t.Fatal(err)
	}
	if ls.IndexBytesRead() != afterPx {
		t.Fatal("cached column reloaded")
	}
	if _, err := ls.ColumnCost("nope", nil); err == nil {
		t.Fatal("unknown column accepted")
	}
	_ = mem
}

func TestLazyEvaluatorMatchesEager(t *testing.T) {
	path, si, mem, _ := writeLazyFixture(t)
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	queries := []string{
		"px > 1e9 && y > 0",
		"id in (0, 3, 6, 9)",
		"!(px > 0) || x > 5e-4",
	}
	for _, q := range queries {
		e := query.MustParse(q)
		lazy, err := ls.CostEvaluator(mem, nil).SelectCtx(context.Background(), e, 0, ls.N())
		if err != nil {
			t.Fatalf("%q lazy: %v", q, err)
		}
		eager, err := si.Evaluator(mem).SelectCtx(context.Background(), e, 0, si.N)
		if err != nil {
			t.Fatalf("%q eager: %v", q, err)
		}
		if len(lazy) != len(eager) {
			t.Fatalf("%q: lazy %d vs eager %d", q, len(lazy), len(eager))
		}
		for i := range lazy {
			if lazy[i] != eager[i] {
				t.Fatalf("%q: position %d differs", q, i)
			}
		}
	}
}

func TestOpenLazyErrors(t *testing.T) {
	if _, err := OpenLazy(filepath.Join(t.TempDir(), "missing.idx")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.idx")
	if err := os.WriteFile(bad, []byte("garbage......"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLazy(bad); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEvaluatorLookupFallbacks(t *testing.T) {
	si, mem, _ := buildTestStep(t, 500, 72, IndexOptions{Bins: 8})
	// Static map takes priority; lookup serves the rest.
	ev := &Evaluator{
		N:       si.N,
		Indexes: map[string]*Index{"px": si.Columns["px"]},
		LookupIndex: func(name string) (*Index, error) {
			ix, ok := si.Columns[name]
			if !ok {
				return nil, os.ErrNotExist
			}
			return ix, nil
		},
		IDVar: "id",
		Raw:   mem,
	}
	if _, err := ev.SelectCtx(context.Background(), query.MustParse("px > 0 && y > 0"), 0, ev.N); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SelectCtx(context.Background(), query.MustParse("zz > 0"), 0, ev.N); err == nil {
		t.Fatal("unknown var accepted via lookup")
	}
	// No lookup, no static entry.
	ev2 := &Evaluator{N: si.N, Indexes: map[string]*Index{}, Raw: mem}
	if _, err := ev2.SelectCtx(context.Background(), query.MustParse("px > 0"), 0, ev2.N); err == nil {
		t.Fatal("missing index accepted")
	}
}

func TestIDLookupDiskSearch(t *testing.T) {
	path, si, _, ids := writeLazyFixture(t)
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	// Small set: resolved by on-disk binary search without loading the
	// full ID section.
	set := []int64{ids[3], ids[1500], ids[3], -99} // dup + miss
	got, err := ls.IDLookup(set)
	if err != nil {
		t.Fatal(err)
	}
	want := si.ID.Lookup(set)
	if len(got) != len(want) {
		t.Fatalf("disk lookup: %d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hit %d differs: %d vs %d", i, got[i], want[i])
		}
	}
	// Fewer bytes than the whole section were read (at 4 KiB block
	// granularity the saving is modest for this small fixture and grows
	// with index size).
	idSectionBytes := uint64(16 * len(ids))
	if ls.IndexBytesRead() >= idSectionBytes {
		t.Fatalf("disk search read %d bytes of a %d-byte section", ls.IndexBytesRead(), idSectionBytes)
	}

	// Large set: falls back to loading and caching the full index.
	big := make([]int64, len(ids)/2)
	copy(big, ids[:len(big)])
	got, err = ls.IDLookup(big)
	if err != nil {
		t.Fatal(err)
	}
	want = si.ID.Lookup(big)
	if len(got) != len(want) {
		t.Fatalf("big lookup: %d hits, want %d", len(got), len(want))
	}
	// Subsequent lookups use the cached index.
	after := ls.IndexBytesRead()
	if _, err := ls.IDLookup(set); err != nil {
		t.Fatal(err)
	}
	if ls.IndexBytesRead() != after {
		t.Fatal("cached ID index re-read from disk")
	}
}

func TestIDLookupWithoutIDIndex(t *testing.T) {
	// Build an index file without an identifier index.
	si, _, _ := buildTestStep(t, 200, 73, IndexOptions{Bins: 8})
	si.ID = nil
	si.IDVar = ""
	path := t.TempDir() + "/noid.idx"
	if err := si.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if _, err := ls.IDLookup([]int64{1}); err == nil {
		t.Fatal("IDLookup without ID index accepted")
	}
	if _, err := ls.IDIndex(); err == nil {
		t.Fatal("IDIndex without ID index accepted")
	}
}

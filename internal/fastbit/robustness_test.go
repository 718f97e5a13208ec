package fastbit

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Serialized index files may arrive truncated or corrupted (partial
// writes, bad storage). Deserialization must return errors, never panic,
// and lazy loading must fail cleanly too.

func serializedFixture(t *testing.T) []byte {
	t.Helper()
	si, _, _ := buildTestStep(t, 500, 91, IndexOptions{Bins: 8})
	var buf bytes.Buffer
	if _, err := si.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadStepIndexTruncationNeverPanics(t *testing.T) {
	data := serializedFixture(t)
	for _, cut := range []int{1, 4, 8, 16, 17, 40, 100, len(data) / 2, len(data) - 1} {
		if cut >= len(data) {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at truncation %d: %v", cut, r)
				}
			}()
			if _, err := ReadStepIndex(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}()
	}
}

func TestReadStepIndexRandomCorruptionNeverPanics(t *testing.T) {
	data := serializedFixture(t)
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 200; trial++ {
		corrupt := append([]byte(nil), data...)
		// Flip a few random bytes.
		for k := 0; k < 1+rng.Intn(4); k++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupted input (trial %d): %v", trial, r)
				}
			}()
			// Either an error or a decodable (but possibly wrong) index is
			// acceptable; a panic is not.
			si, err := ReadStepIndex(bytes.NewReader(corrupt))
			if err == nil && si != nil {
				// Exercise the decoded structures a little.
				for _, ix := range si.Columns {
					_ = ix.BinCounts()
				}
			}
		}()
	}
}

func TestOpenLazyTruncatedFile(t *testing.T) {
	data := serializedFixture(t)
	dir := t.TempDir()
	for _, cut := range []int{4, 16, 60} {
		path := dir + "/trunc.idx"
		if err := writeFile(path, data[:cut]); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLazy(path); err == nil {
			t.Fatalf("truncated header (%d bytes) accepted by OpenLazy", cut)
		}
	}
	// A file with a valid directory but truncated sections must fail on
	// section access, not at open.
	path := dir + "/body.idx"
	// Find a cut point past the header but inside the first section: the
	// header is small, so half the file is safely beyond it.
	if err := writeFile(path, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	ls, err := OpenLazy(path)
	if err != nil {
		// Acceptable: the directory may extend past the cut for tiny files.
		return
	}
	defer ls.Close()
	sawError := false
	for _, name := range ls.Columns() {
		if _, err := ls.ColumnCost(name, nil); err != nil {
			sawError = true
		}
	}
	if _, err := ls.IDIndex(); err != nil {
		sawError = true
	}
	if !sawError {
		t.Fatal("no section access failed despite truncated body")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestSectionCRCDetectsBitFlips flips one byte inside every section's
// payload and checks the per-section checksum catches it — on the eager
// read path and on the lazy section-load path.
func TestSectionCRCDetectsBitFlips(t *testing.T) {
	data := serializedFixture(t)
	d, err := readDirectory(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	checkFlip := func(what string, sec section, lazyLoad func(*LazyStep) error) {
		t.Helper()
		corrupt := append([]byte(nil), data...)
		corrupt[sec.offset+sec.size/2] ^= 0x10

		if _, err := ReadStepIndex(bytes.NewReader(corrupt)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: eager read of flipped payload: err = %v, want ErrCorrupt", what, err)
		}

		// The directory is intact, so lazy open succeeds; the damage must
		// surface when the flipped section is actually loaded.
		path := filepath.Join(t.TempDir(), "flip.idx")
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		ls, err := OpenLazy(path)
		if err != nil {
			t.Fatalf("%s: OpenLazy rejected a file with a healthy directory: %v", what, err)
		}
		defer ls.Close()
		if err := lazyLoad(ls); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: lazy load of flipped payload: err = %v, want ErrCorrupt", what, err)
		}
	}

	for _, name := range d.order {
		name := name
		checkFlip("column "+name, d.cols[name], func(ls *LazyStep) error {
			_, err := ls.ColumnCost(name, nil)
			return err
		})
	}
	if d.hasID {
		checkFlip("id index", d.idSec, func(ls *LazyStep) error {
			_, err := ls.IDIndex()
			return err
		})
	}
}

// TestWriteFileAtomic checks the write-then-rename discipline: the target
// appears fully formed, overwrites are clean, and no temp files survive.
func TestWriteFileAtomic(t *testing.T) {
	si, _, _ := buildTestStep(t, 300, 17, IndexOptions{Bins: 8})
	dir := t.TempDir()
	path := filepath.Join(dir, "step.idx")
	for i := 0; i < 2; i++ { // fresh write, then overwrite
		if err := si.WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadFile(path); err != nil {
		t.Fatalf("written index unreadable: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("expected only step.idx in dir, found %d entries", len(entries))
	}

	// A failed write (unwritable destination dir) must leave no debris.
	if err := si.WriteFile(filepath.Join(dir, "missing", "step.idx")); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("failed write left debris: %d entries", len(entries))
	}
}

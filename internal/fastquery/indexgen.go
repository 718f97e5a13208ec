package fastquery

import (
	"fmt"

	"repro/internal/fastbit"
)

// IndexOptions configures BuildIndexes.
type IndexOptions struct {
	// Vars lists the variables to index; nil indexes every float column
	// except the identifier column.
	Vars []string
	// IDVar names the identifier column; "" disables the ID index.
	IDVar string
	// Index holds the bitmap index build parameters.
	Index fastbit.IndexOptions
	// Force rebuilds indexes that already exist.
	Force bool
	// Progress, when non-nil, is called after each timestep is indexed
	// (skipped steps report indexBytes < 0).
	Progress func(step, total int, indexBytes int)
}

// BuildIndexes runs the paper's one-time preprocessing over an existing
// dataset directory: for every timestep, read the data columns, build the
// bitmap and identifier indexes and write the sidecar index file
// (Figure 1's "indexing metadata" path). Steps that already have an index
// are skipped unless Force is set.
func BuildIndexes(dir string, opt IndexOptions) error {
	src, err := Open(dir)
	if err != nil {
		return err
	}
	idVar := opt.IDVar
	if idVar == "" {
		idVar = "id"
	}
	for t := 0; t < src.Steps(); t++ {
		if src.dataset().HasIndex(t) && !opt.Force {
			if opt.Progress != nil {
				opt.Progress(t, src.Steps(), -1)
			}
			continue
		}
		f, err := src.dataset().OpenStep(t)
		if err != nil {
			return err
		}
		vars := opt.Vars
		if vars == nil {
			for _, name := range f.Columns() {
				if name != idVar {
					vars = append(vars, name)
				}
			}
		}
		cols := map[string][]float64{}
		for _, name := range vars {
			col, err := f.ReadAsFloat64Cost(name, nil)
			if err != nil {
				f.Close()
				return fmt.Errorf("fastquery: step %d: %w", t, err)
			}
			cols[name] = col
		}
		var ids []int64
		if f.HasColumn(idVar) {
			if ids, err = f.ReadInt64Cost(idVar, nil); err != nil {
				f.Close()
				return fmt.Errorf("fastquery: step %d: %w", t, err)
			}
		}
		f.Close()
		si, err := fastbit.BuildStepIndex(cols, ids, idVar, opt.Index)
		if err != nil {
			return fmt.Errorf("fastquery: step %d: %w", t, err)
		}
		if err := si.WriteFile(src.dataset().IndexPath(t)); err != nil {
			return err
		}
		if opt.Progress != nil {
			opt.Progress(t, src.Steps(), si.SizeBytes())
		}
	}
	return nil
}

package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV serializes the trace in a sparse long format:
//
//	header:  id,name,archetype,horizon
//	rows:    one per function, then "minute,count" pairs only for non-zero
//	         minutes, flattened as alternating columns.
//
// The sparse encoding keeps two-week traces compact (most minutes are zero
// for most functions).
func WriteCSV(w io.Writer, tr *Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "name", "archetype", "horizon"}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i := range tr.Functions {
		f := &tr.Functions[i]
		rec := []string{
			strconv.Itoa(f.ID),
			f.Name,
			f.Archetype,
			strconv.Itoa(tr.Horizon),
		}
		for t, c := range f.Counts {
			if c > 0 {
				rec = append(rec, strconv.Itoa(t), strconv.Itoa(c))
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write function %q: %w", f.Name, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// maxCells bounds a trace's size in per-minute counts, horizon × functions
// (2^24 counts, 128 MiB: two weeks of 832 functions, or 970 days of the
// default 12). ReadCSV checks the bound before it allocates any dense
// counts, so a file of short rows claiming long horizons cannot demand more
// memory than that; Generate refuses the same sizes, so every trace it
// makes round-trips through WriteCSV and ReadCSV.
const maxCells = 1 << 24

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // rows have variable length
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if len(header) < 4 || header[0] != "id" {
		return nil, fmt.Errorf("trace: unrecognized header %v", header)
	}
	// Rows stay sparse until the whole file is read: dense counts are
	// allocated only once the trace's size is known to be within maxCells.
	tr := &Trace{}
	var pairs [][]int // per function: minute, count, minute, count, ...
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read row: %w", err)
		}
		if len(rec) < 4 || (len(rec)-4)%2 != 0 {
			return nil, fmt.Errorf("trace: malformed row of %d fields", len(rec))
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("trace: bad id %q: %w", rec[0], err)
		}
		horizon, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, fmt.Errorf("trace: bad horizon %q: %w", rec[3], err)
		}
		if horizon <= 0 {
			return nil, fmt.Errorf("trace: non-positive horizon %d", horizon)
		}
		if tr.Horizon == 0 {
			tr.Horizon = horizon
		} else if tr.Horizon != horizon {
			return nil, fmt.Errorf("trace: inconsistent horizons %d and %d", tr.Horizon, horizon)
		}
		p := make([]int, 0, len(rec)-4)
		for i := 4; i < len(rec); i += 2 {
			t, err := strconv.Atoi(rec[i])
			if err != nil {
				return nil, fmt.Errorf("trace: bad minute %q: %w", rec[i], err)
			}
			c, err := strconv.Atoi(rec[i+1])
			if err != nil {
				return nil, fmt.Errorf("trace: bad count %q: %w", rec[i+1], err)
			}
			if t < 0 || t >= horizon {
				return nil, fmt.Errorf("trace: minute %d outside horizon %d", t, horizon)
			}
			p = append(p, t, c)
		}
		tr.Functions = append(tr.Functions, Function{ID: id, Name: rec[1], Archetype: rec[2]})
		pairs = append(pairs, p)
	}
	if n := len(tr.Functions); n > 0 && tr.Horizon > maxCells/n {
		return nil, fmt.Errorf("trace: %d functions of horizon %d exceed %d counts", n, tr.Horizon, maxCells)
	}
	for i, p := range pairs {
		counts := make([]int, tr.Horizon)
		for j := 0; j < len(p); j += 2 {
			counts[p[j]] = p[j+1]
		}
		tr.Functions[i].Counts = counts
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

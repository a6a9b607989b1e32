package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// The Microsoft Azure Functions trace [Shahrad et al., ATC'20] ships as
// per-day CSV files with one row per function:
//
//	HashOwner,HashApp,HashFunction,Trigger,1,2,...,1440
//
// where columns 1..1440 are invocation counts per minute of the day. This
// file implements a writer for that format, so synthetic traces
// interoperate with tooling built for it (tracegen -azure). The real trace
// is not in the repository, and nothing here reads it.

// azureHeaderPrefix is the fixed leading columns of the Azure format.
var azureHeaderPrefix = []string{"HashOwner", "HashApp", "HashFunction", "Trigger"}

// WriteAzureCSV exports the trace in the Azure Functions day-file format,
// one writer per day. The trace horizon must be a whole number of days and
// match len(days).
func WriteAzureCSV(tr *Trace, days ...io.Writer) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	if tr.Horizon%MinutesPerDay != 0 {
		return fmt.Errorf("trace: horizon %d is not a whole number of days", tr.Horizon)
	}
	if got, want := len(days), tr.Horizon/MinutesPerDay; got != want {
		return fmt.Errorf("trace: %d day writers for a %d-day trace", got, want)
	}
	header := append([]string{}, azureHeaderPrefix...)
	for m := 1; m <= MinutesPerDay; m++ {
		header = append(header, strconv.Itoa(m))
	}
	for day, w := range days {
		cw := csv.NewWriter(w)
		if err := cw.Write(header); err != nil {
			return fmt.Errorf("trace: azure day %d header: %w", day, err)
		}
		base := day * MinutesPerDay
		for i := range tr.Functions {
			f := &tr.Functions[i]
			rec := make([]string, 0, len(header))
			// Synthetic stable hashes derived from the function identity.
			rec = append(rec,
				fmt.Sprintf("owner-%04d", f.ID),
				fmt.Sprintf("app-%04d", f.ID),
				f.Name,
				f.Archetype,
			)
			for m := 0; m < MinutesPerDay; m++ {
				rec = append(rec, strconv.Itoa(f.Counts[base+m]))
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("trace: azure day %d fn %s: %w", day, f.Name, err)
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return fmt.Errorf("trace: azure day %d flush: %w", day, err)
		}
	}
	return nil
}

package models

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCatalog: arbitrary JSON must never panic; anything accepted must
// validate and round-trip to an equivalent catalog.
func FuzzReadCatalog(f *testing.F) {
	f.Add(string(encodeCatalog(f, PaperCatalog())))
	f.Add(`{"families": []}`)
	f.Add(`{"families": [{"name": "X", "variants": [{"name": "v", "accuracyPct": 50, "execSec": 1, "memoryMB": 10}]}]}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ReadCatalog(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("ReadCatalog accepted invalid catalog: %v", verr)
		}
		back, rerr := ReadCatalog(bytes.NewReader(encodeCatalog(t, c)))
		if rerr != nil {
			t.Fatalf("round trip failed: %v", rerr)
		}
		if len(back.Families) != len(c.Families) {
			t.Fatalf("round trip changed family count")
		}
	})
}

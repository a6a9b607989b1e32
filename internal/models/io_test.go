package models

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// encodeCatalog renders c in ReadCatalog's file layout.
func encodeCatalog(t testing.TB, c *Catalog) []byte {
	out := catalogJSON{Families: make([]familyJSON, len(c.Families))}
	for i, f := range c.Families {
		out.Families[i] = familyJSON{Name: f.Name, Task: f.Task, Dataset: f.Dataset}
		for _, v := range f.Variants {
			out.Families[i].Variants = append(out.Families[i].Variants, variantJSON(v))
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// family returns the named family of c, or nil.
func family(c *Catalog, name string) *Family {
	for i := range c.Families {
		if c.Families[i].Name == name {
			return &c.Families[i]
		}
	}
	return nil
}

func TestCatalogJSONRoundTrip(t *testing.T) {
	orig := PaperCatalog()
	back, err := ReadCatalog(bytes.NewReader(encodeCatalog(t, orig)))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Families) != len(orig.Families) {
		t.Fatalf("families: %d vs %d", len(back.Families), len(orig.Families))
	}
	for i := range orig.Families {
		of, bf := orig.Families[i], back.Families[i]
		if of.Name != bf.Name || of.Task != bf.Task || of.Dataset != bf.Dataset {
			t.Errorf("family %d metadata: %+v vs %+v", i, of, bf)
		}
		if len(of.Variants) != len(bf.Variants) {
			t.Fatalf("family %d variants: %d vs %d", i, len(of.Variants), len(bf.Variants))
		}
		for j := range of.Variants {
			if of.Variants[j] != bf.Variants[j] {
				t.Errorf("variant %d/%d: %+v vs %+v", i, j, of.Variants[j], bf.Variants[j])
			}
		}
	}
}

func TestReadCatalogErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad json", "{"},
		{"unknown field", `{"families": [], "extra": 1}`},
		{"unknown variant field", `{"families": [{"name": "F", "variants": [{"name": "v", "accuracyPct": 50, "execSec": 1, "memoryMB": 10, "zzz": 1}]}]}`},
		{"empty catalog", `{"families": []}`},
		{"invalid ordering", `{"families": [{"name": "F", "variants": [
			{"name": "a", "accuracyPct": 90, "execSec": 1, "memoryMB": 10},
			{"name": "b", "accuracyPct": 80, "execSec": 1, "memoryMB": 20}]}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadCatalog(strings.NewReader(c.in)); err == nil {
				t.Errorf("ReadCatalog(%s) accepted", c.name)
			}
		})
	}
}

func TestReadCatalogHandwritten(t *testing.T) {
	in := `{"families": [
		{"name": "Tiny", "task": "demo", "variants": [
			{"name": "t-lo", "accuracyPct": 60, "execSec": 0.5, "coldStartSec": 2, "memoryMB": 100},
			{"name": "t-hi", "accuracyPct": 80, "execSec": 1.0, "coldStartSec": 4, "memoryMB": 400}
		]}
	]}`
	c, err := ReadCatalog(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f := family(c, "Tiny")
	if f == nil || f.NumVariants() != 2 || f.Highest().MemoryMB != 400 {
		t.Errorf("parsed catalog wrong: %+v", c)
	}
}

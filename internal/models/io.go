package models

import (
	"encoding/json"
	"fmt"
	"io"
)

// The model repository (Figure 3) as a file artifact: a JSON catalog lets
// a deployment describe its own model families and variants without
// recompiling (pulsesim -catalog).
//
//	{
//	  "families": [
//	    {"name": "GPT", "task": "text generation", "dataset": "wikitext",
//	     "variants": [
//	       {"name": "GPT-Small", "accuracyPct": 87.65, "execSec": 12.9,
//	        "coldStartSec": 13.8, "memoryMB": 982}
//	     ]}
//	  ]
//	}

type catalogJSON struct {
	Families []familyJSON `json:"families"`
}

type familyJSON struct {
	Name     string        `json:"name"`
	Task     string        `json:"task,omitempty"`
	Dataset  string        `json:"dataset,omitempty"`
	Variants []variantJSON `json:"variants"`
}

type variantJSON struct {
	Name         string  `json:"name"`
	AccuracyPct  float64 `json:"accuracyPct"`
	ExecSec      float64 `json:"execSec"`
	ColdStartSec float64 `json:"coldStartSec"`
	MemoryMB     float64 `json:"memoryMB"`
}

// ReadCatalog parses and validates a catalog file in the layout above.
// Unknown fields are rejected to catch typos.
func ReadCatalog(r io.Reader) (*Catalog, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var in catalogJSON
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("models: decode catalog: %w", err)
	}
	c := &Catalog{Families: make([]Family, len(in.Families))}
	for i, fj := range in.Families {
		f := Family{Name: fj.Name, Task: fj.Task, Dataset: fj.Dataset,
			Variants: make([]Variant, len(fj.Variants))}
		for j, vj := range fj.Variants {
			f.Variants[j] = Variant{
				Name:         vj.Name,
				AccuracyPct:  vj.AccuracyPct,
				ExecSec:      vj.ExecSec,
				ColdStartSec: vj.ColdStartSec,
				MemoryMB:     vj.MemoryMB,
			}
		}
		c.Families[i] = f
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV: arbitrary input must never panic, and anything that parses
// must validate and round-trip.
func FuzzReadCSV(f *testing.F) {
	tr, err := Generate(GeneratorConfig{Seed: 1, Horizon: 120})
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := WriteCSV(&seed, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("id,name,archetype,horizon\n0,f,a,10,1,1\n")
	f.Add("")
	f.Add("id,name,archetype,horizon\n0,f,a,10,1\n")
	f.Add("id,name,archetype,horizon\n0,f,a,-1\n")
	f.Add("id,name,archetype,horizon\n0,f,a,9223372036854775807\n")
	f.Add("id,name,archetype,horizon\n" + strings.Repeat("0,f,a,1048576\n", 1000))
	f.Fuzz(func(t *testing.T, in string) {
		parsed, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := parsed.Validate(); verr != nil {
			t.Fatalf("ReadCSV accepted invalid trace: %v", verr)
		}
		var out bytes.Buffer
		if werr := WriteCSV(&out, parsed); werr != nil {
			t.Fatalf("parsed trace failed to serialize: %v", werr)
		}
		back, rerr := ReadCSV(&out)
		if rerr != nil {
			t.Fatalf("round trip failed: %v", rerr)
		}
		if back.TotalInvocations() != parsed.TotalInvocations() {
			t.Fatalf("round trip changed invocations: %d vs %d",
				back.TotalInvocations(), parsed.TotalInvocations())
		}
	})
}

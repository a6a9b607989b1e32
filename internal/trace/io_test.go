package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	orig, err := Generate(GeneratorConfig{Seed: 11, Horizon: 2 * MinutesPerDay})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Horizon != orig.Horizon || len(back.Functions) != len(orig.Functions) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			back.Horizon, len(back.Functions), orig.Horizon, len(orig.Functions))
	}
	for i := range orig.Functions {
		of, bf := &orig.Functions[i], &back.Functions[i]
		if of.ID != bf.ID || of.Name != bf.Name || of.Archetype != bf.Archetype {
			t.Errorf("fn %d metadata mismatch: %+v vs %+v", i, of, bf)
		}
		for tt := range of.Counts {
			if of.Counts[tt] != bf.Counts[tt] {
				t.Fatalf("fn %d counts diverge at %d: %d vs %d", i, tt, of.Counts[tt], bf.Counts[tt])
			}
		}
	}
}

func TestWriteCSVInvalidTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, &Trace{Horizon: 0}); err == nil {
		t.Error("writing invalid trace should fail")
	}
}

func TestReadCSVMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "x,y,z,w\n"},
		{"bad id", "id,name,archetype,horizon\nzz,f,a,10,1,1\n"},
		{"bad horizon", "id,name,archetype,horizon\n0,f,a,nope,1,1\n"},
		{"negative horizon", "id,name,archetype,horizon\n0,f,a,-1\n"},
		{"zero horizon", "id,name,archetype,horizon\n0,f,a,0\n"},
		{"huge horizon", "id,name,archetype,horizon\n0,f,a,9223372036854775807\n"},
		{"horizon over the bound", "id,name,archetype,horizon\n0,f,a,16777217\n"},
		{"odd pairs", "id,name,archetype,horizon\n0,f,a,10,1\n"},
		{"bad minute", "id,name,archetype,horizon\n0,f,a,10,xx,1\n"},
		{"bad count", "id,name,archetype,horizon\n0,f,a,10,1,xx\n"},
		{"minute out of range", "id,name,archetype,horizon\n0,f,a,10,15,1\n"},
		{"inconsistent horizons", "id,name,archetype,horizon\n0,f,a,10,1,1\n1,g,a,20,1,1\n"},
		{"duplicate ids", "id,name,archetype,horizon\n0,f,a,10,1,1\n0,g,a,10,2,1\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
				t.Errorf("ReadCSV(%q) should fail", c.in)
			}
		})
	}
}

// A file is refused by its size in counts, horizon × functions, before any
// dense counts are allocated: 17 short rows claiming 2^20 minutes each ask
// for 17 × 8 MiB, and the reader must turn them away without allocating
// even one of those rows. The generator refuses the same size.
func TestReadCSVSizeBound(t *testing.T) {
	var in strings.Builder
	in.WriteString("id,name,archetype,horizon\n")
	rows := maxCells/(1<<20) + 1
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&in, "%d,f%d,a,%d,%d,1\n", i, i, 1<<20, i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCSV(strings.NewReader(in.String()))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("ReadCSV of %d rows of horizon 2^20 = %v, want a size error", rows, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Errorf("rejecting the file allocated %d bytes, at least one dense row", got)
	}
	arch := AzureLikeArchetypes()
	if _, err := Generate(GeneratorConfig{Horizon: maxCells/len(arch) + 1}); err == nil {
		t.Error("Generate accepted a trace ReadCSV refuses")
	}
}

func TestReadCSVValid(t *testing.T) {
	in := "id,name,archetype,horizon\n0,f,periodic,10,2,1,5,3\n1,g,,10\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Horizon != 10 || len(tr.Functions) != 2 {
		t.Fatalf("parsed shape: horizon=%d fns=%d", tr.Horizon, len(tr.Functions))
	}
	f := tr.Functions[0]
	if f.ID != 0 || f.Counts[2] != 1 || f.Counts[5] != 3 {
		t.Errorf("sparse counts wrong: %v", f.Counts)
	}
	g := tr.Functions[1]
	if g.ID != 1 || g.TotalInvocations() != 0 {
		t.Errorf("empty function has invocations: %v", g.Counts)
	}
}

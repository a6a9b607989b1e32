package trace

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
)

// TestWriteAzureCSVBytes pins the writer's exact output on a small fixed
// one-day trace: the header, then one row per function with its synthetic
// hashes, its archetype as the trigger, and all 1440 minute counts.
func TestWriteAzureCSVBytes(t *testing.T) {
	f0 := make([]int, MinutesPerDay)
	f0[0], f0[MinutesPerDay-1] = 3, 1
	f1 := make([]int, MinutesPerDay)
	f1[99] = 12
	tr := &Trace{Horizon: MinutesPerDay, Functions: []Function{
		{ID: 0, Name: "f0", Archetype: "periodic", Counts: f0},
		{ID: 7, Name: "f1", Archetype: "bursty", Counts: f1},
	}}
	var got bytes.Buffer
	if err := WriteAzureCSV(tr, &got); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	want.WriteString("HashOwner,HashApp,HashFunction,Trigger")
	for m := 1; m <= MinutesPerDay; m++ {
		want.WriteString("," + strconv.Itoa(m))
	}
	want.WriteString("\n")
	want.WriteString("owner-0000,app-0000,f0,periodic,3" + strings.Repeat(",0", MinutesPerDay-2) + ",1\n")
	want.WriteString("owner-0007,app-0007,f1,bursty" + strings.Repeat(",0", 99) + ",12" + strings.Repeat(",0", MinutesPerDay-100) + "\n")
	if got.String() != want.String() {
		t.Errorf("WriteAzureCSV output differs from the pinned bytes:\n got %.200q...\nwant %.200q...", got.String(), want.String())
	}
}

func TestWriteAzureCSVErrors(t *testing.T) {
	tr, err := Generate(GeneratorConfig{Seed: 2, Horizon: MinutesPerDay + 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAzureCSV(tr, io.Discard); err == nil {
		t.Error("non-whole-day horizon accepted")
	}
	tr2, err := Generate(GeneratorConfig{Seed: 2, Horizon: 2 * MinutesPerDay})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAzureCSV(tr2, io.Discard); err == nil {
		t.Error("wrong day-writer count accepted")
	}
	if err := WriteAzureCSV(&Trace{Horizon: 0}, io.Discard); err == nil {
		t.Error("invalid trace accepted")
	}
}

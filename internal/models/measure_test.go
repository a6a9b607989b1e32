package models

import (
	"math"
	"testing"
)

func TestLambdaSimColdWarmCycle(t *testing.T) {
	v := validVariant()
	sim, err := NewLambdaSim(v, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sim.warm {
		t.Error("fresh simulator should be cold")
	}
	s, cold := sim.Invoke()
	if !cold {
		t.Error("first invocation should be cold")
	}
	if s != v.ColdServiceSec() {
		t.Errorf("cold service = %v, want %v", s, v.ColdServiceSec())
	}
	s, cold = sim.Invoke()
	if cold {
		t.Error("second invocation should be warm")
	}
	if s != v.ExecSec {
		t.Errorf("warm service = %v, want %v", s, v.ExecSec)
	}
	// Memory change forces the next invocation cold.
	if err := sim.SetMemorySize(sim.MemorySize() + 128); err != nil {
		t.Fatal(err)
	}
	if _, cold := sim.Invoke(); !cold {
		t.Error("memory change should force cold start")
	}
	// Setting the same size is a no-op.
	if err := sim.SetMemorySize(sim.MemorySize()); err != nil {
		t.Fatal(err)
	}
	if _, cold := sim.Invoke(); cold {
		t.Error("unchanged memory size should not force cold start")
	}
}

func TestLambdaSimDefaults(t *testing.T) {
	v := validVariant()
	sim, err := NewLambdaSim(v, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Paper methodology: Lambda memory is twice the image size.
	if got := sim.MemorySize(); got != 2*v.MemoryMB {
		t.Errorf("MemorySize = %v, want %v", got, 2*v.MemoryMB)
	}
	if err := sim.SetMemorySize(0); err == nil {
		t.Error("SetMemorySize(0) should fail")
	}
	if _, err := NewLambdaSim(Variant{}, 1, 0); err == nil {
		t.Error("invalid variant accepted")
	}
	if _, err := NewLambdaSim(v, 1, -0.1); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestLambdaSimNoise(t *testing.T) {
	v := validVariant()
	sim, err := NewLambdaSim(v, 7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sim.Invoke() // discard cold
	var sum float64
	const n = 2000
	distinct := make(map[float64]bool)
	for i := 0; i < n; i++ {
		s, _ := sim.Invoke()
		if s <= 0 {
			t.Fatal("non-positive noisy latency")
		}
		sum += s
		distinct[s] = true
	}
	mean := sum / n
	if math.Abs(mean-v.ExecSec) > 0.05*v.ExecSec {
		t.Errorf("noisy mean = %v, want ≈%v", mean, v.ExecSec)
	}
	if len(distinct) < n/2 {
		t.Error("noise not actually varying")
	}
}

func TestCharacterize(t *testing.T) {
	v := validVariant()
	ch, err := Characterize(v, 1, 0, 100, 10, DefaultCentsPerMBHour)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Variant != v.Name {
		t.Errorf("variant name = %q", ch.Variant)
	}
	if ch.MeanWarmSec != v.ExecSec {
		t.Errorf("noiseless warm mean = %v, want %v", ch.MeanWarmSec, v.ExecSec)
	}
	if ch.MeanColdSec != v.ColdServiceSec() {
		t.Errorf("noiseless cold mean = %v, want %v", ch.MeanColdSec, v.ColdServiceSec())
	}
	if ch.WarmSamples != 100 || ch.ColdSamples != 10 {
		t.Errorf("samples: %d/%d", ch.WarmSamples, ch.ColdSamples)
	}
	wantCost := v.MemoryMB * DefaultCentsPerMBHour
	if math.Abs(ch.KeepAliveCentsPerHour-wantCost) > 1e-9 {
		t.Errorf("cost = %v, want %v", ch.KeepAliveCentsPerHour, wantCost)
	}
	if _, err := Characterize(v, 1, 0, 0, 10, 1); err == nil {
		t.Error("zero warm runs accepted")
	}
	if _, err := Characterize(v, 1, 0, 10, 0, 1); err == nil {
		t.Error("zero cold runs accepted")
	}
}

func TestCharacterizeWithNoiseConverges(t *testing.T) {
	v := validVariant()
	ch, err := Characterize(v, 42, 0.05, 1000, 200, DefaultCentsPerMBHour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ch.MeanWarmSec-v.ExecSec) > 0.05*v.ExecSec {
		t.Errorf("warm mean %v too far from %v", ch.MeanWarmSec, v.ExecSec)
	}
	if math.Abs(ch.MeanColdSec-v.ColdServiceSec()) > 0.05*v.ColdServiceSec() {
		t.Errorf("cold mean %v too far from %v", ch.MeanColdSec, v.ColdServiceSec())
	}
	if ch.MeanColdSec <= ch.MeanWarmSec {
		t.Error("cold starts should be slower than warm starts")
	}
}

func TestCharacterizeCatalogTableI(t *testing.T) {
	c := PaperCatalog()
	rows, err := CharacterizeCatalog(c, 1, 0, 50, 5, DefaultCentsPerMBHour)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 0
	for _, f := range c.Families {
		wantRows += f.NumVariants()
	}
	if len(rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(rows), wantRows)
	}
	// Noiseless characterization reproduces Table I warm service times for
	// the tabulated variants exactly.
	byName := make(map[string]Characterization)
	for _, r := range rows {
		byName[r.Variant] = r
	}
	for _, want := range []struct {
		name string
		warm float64
		cost float64
	}{
		{"GPT-Small", 12.90, 11.70},
		{"GPT-Medium", 22.50, 22.57},
		{"GPT-Large", 23.66, 41.71},
		{"BERT-Small", 1.09, 4.392},
		{"DenseNet-201", 1.65, 4.07},
	} {
		r, ok := byName[want.name]
		if !ok {
			t.Errorf("missing characterization for %s", want.name)
			continue
		}
		if math.Abs(r.MeanWarmSec-want.warm) > 1e-9 {
			t.Errorf("%s warm = %v, want %v (Table I)", want.name, r.MeanWarmSec, want.warm)
		}
		if math.Abs(r.KeepAliveCentsPerHour-want.cost) > 0.02 {
			t.Errorf("%s cost = %v ¢/h, want ≈%v (Table I)", want.name, r.KeepAliveCentsPerHour, want.cost)
		}
	}
	if _, err := CharacterizeCatalog(&Catalog{}, 1, 0, 1, 1, 1); err == nil {
		t.Error("invalid catalog accepted")
	}
}

func BenchmarkLambdaSimInvoke(b *testing.B) {
	sim, err := NewLambdaSim(validVariant(), 1, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Invoke()
	}
}

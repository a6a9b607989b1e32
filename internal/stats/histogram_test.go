package stats

import "testing"

func TestIntHistogramBasics(t *testing.T) {
	h := NewIntHistogram()
	if h.Total() != 0 {
		t.Fatalf("new histogram total = %d", h.Total())
	}
	for _, v := range []int{2, 2, 2, 5, 5, 9} {
		if err := h.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d, want 6", h.Total())
	}
	if got := h.String(); got != "IntHistogram{2:3, 5:2, 9:1}" {
		t.Errorf("counts = %s, want IntHistogram{2:3, 5:2, 9:1}", got)
	}
	vs := h.Values()
	if len(vs) != 3 || vs[0] != 2 || vs[1] != 5 || vs[2] != 9 {
		t.Errorf("Values = %v", vs)
	}
}

func TestIntHistogramAddNegative(t *testing.T) {
	h := NewIntHistogram()
	if err := h.Add(-1); err == nil {
		t.Error("Add(-1) should fail")
	}
}

func TestIntHistogramZeroValueUsable(t *testing.T) {
	var h IntHistogram
	if err := h.Add(1); err != nil {
		t.Fatal(err)
	}
	if h.Total() != 1 {
		t.Errorf("zero-value histogram total = %d", h.Total())
	}
}

func TestIntHistogramMeanCV(t *testing.T) {
	h := NewIntHistogram()
	for _, v := range []int{2, 4, 4, 4, 5, 5, 7, 9} {
		_ = h.Add(v)
	}
	if got := h.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := h.CV(); !almostEqual(got, 0.4, 1e-12) {
		t.Errorf("CV = %v, want 0.4", got)
	}
	empty := NewIntHistogram()
	if empty.Mean() != 0 || empty.CV() != 0 {
		t.Error("empty histogram Mean/CV should be 0")
	}
}

func TestIntHistogramPercentile(t *testing.T) {
	h := NewIntHistogram()
	for v := 1; v <= 100; v++ {
		_ = h.Add(v)
	}
	for _, c := range []struct {
		p    float64
		want int
	}{{1, 1}, {50, 50}, {99, 99}, {100, 100}} {
		got, err := h.Percentile(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if _, err := NewIntHistogram().Percentile(50); err != ErrEmpty {
		t.Errorf("empty percentile err = %v, want ErrEmpty", err)
	}
	if _, err := h.Percentile(-3); err == nil {
		t.Error("negative percentile should fail")
	}
}

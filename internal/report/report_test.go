package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	if err := tab.AddRow("alpha", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRow("b"); err != nil { // short row padded
		t.Fatal(err)
	}
	if err := tab.AddRow("x", "y", "z"); err == nil {
		t.Error("overlong row accepted")
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Demo", "name", "value", "alpha", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
}

func TestFormatters(t *testing.T) {
	if got := F(3.14159); got != "3.14" {
		t.Errorf("F = %q", got)
	}
	if got := F4(0.00012); got != "0.0001" {
		t.Errorf("F4 = %q", got)
	}
	if got := Pct(39.5); got != "+39.5%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(-0.6); got != "-0.6%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	if got := Sparkline([]float64{1, 2}, 0); got != "" {
		t.Errorf("zero-width sparkline = %q", got)
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if runes := []rune(s); len(runes) != 8 {
		t.Errorf("sparkline width = %d, want 8", len(runes))
	}
	if !strings.HasPrefix(s, "▁") || !strings.HasSuffix(s, "█") {
		t.Errorf("sparkline shape wrong: %q", s)
	}
	// Constant series renders without dividing by zero.
	flat := Sparkline([]float64{5, 5, 5}, 3)
	if [](rune)(flat)[0] != '▁' {
		t.Errorf("flat sparkline = %q", flat)
	}
	// Downsampling takes the bucket max.
	wide := Sparkline([]float64{0, 9, 0, 0}, 2)
	if []rune(wide)[0] != '█' {
		t.Errorf("bucketed sparkline lost the max: %q", wide)
	}
}

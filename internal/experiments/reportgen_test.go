package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/trace"
)

// expectedFailingRows names, as "experiment / metric", the shape checks that
// fail in TestWriteMarkdownReport's half-day, two-run report. None does
// today.
var expectedFailingRows = map[string]bool{}

func TestWriteMarkdownReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite")
	}
	var md strings.Builder
	opts := Options{Seed: 3, HorizonMinutes: trace.MinutesPerDay / 2, Runs: 2}
	clock := func() time.Time { return time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC) }
	if err := WriteMarkdownReport(opts, &md, clock); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{
		"# EXPERIMENTS — paper vs measured",
		"| experiment | metric | paper | measured | shape holds |",
		"Table I", "Table II", "Table III",
		"Figure 1", "Figure 2", "Figure 4", "Figure 5",
		"Figure 6a", "Figure 6b", "Figure 7", "Figure 8",
		"Figure 9a", "Figure 9b", "Figure 10", "Figure 11", "Figure 12",
		"Extension",
		"+39.5%", // the paper's headline appears as the reference value
		"shape checks hold",
		"Known divergences",
		"2026-07-06 12:00 UTC",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// At this tiny scale not every check holds. The rows that fail are
	// named: a row that starts passing or newly fails breaks the test, so
	// the report's verdicts cannot drift unseen.
	failing := map[string]bool{}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		cells := strings.Split(line, " | ")
		if len(cells) != 5 || !strings.HasSuffix(line, "✅ |") && !strings.HasSuffix(line, "❌ |") {
			continue
		}
		rows++
		if strings.HasSuffix(line, "❌ |") {
			failing[strings.TrimPrefix(cells[0], "| ")+" / "+cells[1]] = true
		}
	}
	if want := fmt.Sprintf("**%d / %d shape checks hold.**", rows-len(failing), rows); rows == 0 || !strings.Contains(out, want) {
		t.Fatalf("parsed %d verdict rows, %d failing; the report's summary does not read %q\n%s", rows, len(failing), want, out)
	}
	for row := range failing {
		if !expectedFailingRows[row] {
			t.Errorf("shape check newly fails at test scale: %s", row)
		}
	}
	for row := range expectedFailingRows {
		if !failing[row] {
			t.Errorf("shape check expected to fail at test scale now holds (drop it from expectedFailingRows): %s", row)
		}
	}
	// A nil clock omits the timestamp without crashing.
	var md2 strings.Builder
	if err := WriteMarkdownReport(opts, &md2, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(md2.String(), "UTC") {
		t.Error("nil clock still produced a timestamp")
	}
}

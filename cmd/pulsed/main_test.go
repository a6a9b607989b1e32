package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/metastore"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/runtime"
)

// The package doc comment is the operator-facing summary of the HTTP
// surface; it must list every endpoint the API actually serves
// (runtime.Endpoints is the single source of truth). This asserts the doc
// never drifts again the way /events was dropped from it once.
func TestDocCommentListsEveryEndpoint(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	// Only the package doc comment counts as documentation: the text
	// before the package clause.
	doc, _, found := strings.Cut(string(src), "package main")
	if !found {
		t.Fatal("main.go has no package clause")
	}
	for _, ep := range runtime.Endpoints() {
		want := ep.Method + " " + ep.Path
		// The doc comment tabulates "METHOD /path" with padding between.
		if !strings.Contains(strings.Join(strings.Fields(doc), " "), want) {
			t.Errorf("doc comment does not document %q", want)
		}
	}
}

// The attribution flags must exist with the documented defaults.
func TestAttributionFlagsRegistered(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, flagName := range []string{`"attribution"`, `"attribution-window"`} {
		if !strings.Contains(string(src), flagName) {
			t.Errorf("main.go does not register the %s flag", flagName)
		}
	}
}

// The tournament flag must exist, its help text must name the registered
// entrants, and the doc comment must describe the surface it unlocks.
func TestTournamentFlagRegistered(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), `"tournament"`) {
		t.Error("main.go does not register the tournament flag")
	}
	doc, _, _ := strings.Cut(string(src), "package main")
	for _, want := range []string{"-tournament", "by=policy", "savings_vs_<entrant>_usd"} {
		if !strings.Contains(doc, want) {
			t.Errorf("doc comment does not mention %q", want)
		}
	}
}

// The provenance and tracing flags must stay wired into the flag surface:
// -provenance-window gates /why (and is on by default), -trace-sample
// gates /traces.
func TestProvenanceFlagsRegistered(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, flagName := range []string{`"provenance-window"`, `"trace-sample"`} {
		if !strings.Contains(string(src), flagName) {
			t.Errorf("main.go does not register the %s flag", flagName)
		}
	}
}

// tickInterval guards the -compress flag: compress 0 used to overflow into
// a never-firing ticker, so the daemon served traffic but never advanced
// simulated minutes — a silent hang of the whole control loop.
func TestTickIntervalValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, -60, math.NaN(), math.Inf(1), math.Inf(-1), 1e30} {
		if _, err := tickInterval(bad); err == nil {
			t.Errorf("compress %v accepted", bad)
		}
	}
	for compress, want := range map[float64]time.Duration{
		1:    time.Minute,
		60:   time.Second,
		0.5:  2 * time.Minute, // slow motion is valid
		1200: 50 * time.Millisecond,
	} {
		got, err := tickInterval(compress)
		if err != nil {
			t.Errorf("compress %v rejected: %v", compress, err)
			continue
		}
		if got != want {
			t.Errorf("compress %v: interval %v, want %v", compress, got, want)
		}
	}
}

// The compress validation must stay wired into the flag surface; the serving
// mode must not be on it — pulsed always serves in epoch mode.
func TestRuntimeFlagsRegistered(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "tickInterval(*compress)") {
		t.Error("main.go does not contain tickInterval(*compress)")
	}
	for _, gone := range []string{`"mode"`, `"serial"`} {
		if strings.Contains(string(src), gone) {
			t.Errorf("main.go still registers a %s flag", gone)
		}
	}
}

// The daemon must survive any unusable snapshot — corrupted, truncated, or
// from another schema generation — by logging and starting cold, never by
// refusing to start. Only genuine I/O setup failures propagate.
func TestLoadOrColdController(t *testing.T) {
	dir := t.TempDir()
	store, err := metastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Catalog: models.PaperCatalog(), Assignment: models.Assignment{0, 1}}

	// No snapshot at all: silent cold start.
	c, err := loadOrColdController(store, "pulsed", dir, cfg)
	if err != nil || c.ResumeMinute() != 0 {
		t.Fatalf("missing snapshot: controller %v, err %v", c, err)
	}

	// A real snapshot restores.
	warm, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 0}
	for m := 0; m < 10; m++ {
		warm.KeepAlive(m)
		warm.RecordInvocations(m, counts)
	}
	if err := store.SaveController("pulsed", warm); err != nil {
		t.Fatal(err)
	}
	c, err = loadOrColdController(store, "pulsed", dir, cfg)
	if err != nil || c.ResumeMinute() != 10 {
		t.Fatalf("valid snapshot: resume minute %d, err %v; want 10", c.ResumeMinute(), err)
	}

	// Truncate the snapshot mid-file: the daemon logs and starts cold.
	path := filepath.Join(dir, "pulsed.snapshot.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = loadOrColdController(store, "pulsed", dir, cfg)
	if err != nil {
		t.Fatalf("truncated snapshot killed startup: %v", err)
	}
	if c.ResumeMinute() != 0 {
		t.Errorf("truncated snapshot resumed at minute %d, want cold start", c.ResumeMinute())
	}

	// Envelope from another schema generation: same cold-start path.
	doctored := strings.Replace(string(blob), `{"version":2,`, `{"version":99,`, 1)
	if doctored == string(blob) {
		t.Fatal("could not doctor envelope version")
	}
	if err := os.WriteFile(path, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = loadOrColdController(store, "pulsed", dir, cfg)
	if err != nil {
		t.Fatalf("version-mismatched snapshot killed startup: %v", err)
	}
	if c.ResumeMinute() != 0 {
		t.Errorf("version-mismatched snapshot resumed at minute %d, want cold start", c.ResumeMinute())
	}
}

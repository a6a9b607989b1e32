package metastore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCrashRecoverySweepsTempFiles simulates a Save interrupted between
// temp-file write and rename: the orphaned temp file must be swept on the
// next Open, and the authoritative snapshot (previous complete version, per
// the atomic-rename protocol) must still load.
func TestCrashRecoverySweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, cfg := newController(t)
	if err := s.SaveController("c", p); err != nil {
		t.Fatal(err)
	}
	// A crash mid-Save leaves a half-written temp file behind.
	orphan := filepath.Join(dir, "c.tmp-123456")
	if err := os.WriteFile(orphan, []byte(`{"version":2,"checks`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived reopen: stat err = %v", err)
	}
	back, err := s2.LoadController("c", cfg)
	if err != nil {
		t.Fatalf("snapshot unreadable after temp sweep: %v", err)
	}
	if back.ResumeMinute() != p.ResumeMinute() {
		t.Errorf("resume minute %d, want %d", back.ResumeMinute(), p.ResumeMinute())
	}
	// The sweep never touches real snapshots.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "c.snapshot.json" {
		t.Errorf("store directory after sweep = %v, %v", entries, err)
	}
}

// TestTruncatedEnvelope pins the failure mode of a snapshot cut short (disk
// full, torn write outside the atomic protocol): a descriptive corruption
// error, never a panic, and never os.IsNotExist (which would silently read
// as "no state saved").
func TestTruncatedEnvelope(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := newController(t)
	if err := s.SaveController("c", p); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "c.snapshot.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(blob) / 2, len(blob) - 1} {
		if err := os.WriteFile(path, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := s.Load("c")
		if err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
		if os.IsNotExist(err) {
			t.Fatalf("truncation at %d reads as not-exist", cut)
		}
		if !strings.Contains(err.Error(), "metastore:") {
			t.Errorf("truncation at %d: undecorated error %v", cut, err)
		}
	}
}

// TestEnvelopeVersionMismatch: an envelope from another schema generation
// is rejected with a message naming both versions, so an operator reads
// "migrate", not "corrupted".
func TestEnvelopeVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := newController(t)
	if err := s.SaveController("c", p); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "c.snapshot.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The envelope is compact JSON with the version first.
	doctored := strings.Replace(string(blob), `{"version":2,`, `{"version":1,`, 1)
	if doctored == string(blob) {
		t.Fatal("could not doctor envelope version; envelope layout changed?")
	}
	if err := os.WriteFile(path, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Load("c")
	if err == nil {
		t.Fatal("version-1 envelope accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "schema version 1") || !strings.Contains(msg, "version 2") {
		t.Errorf("version mismatch error %q does not name both versions", msg)
	}
	if !strings.Contains(msg, "migrate") {
		t.Errorf("version mismatch error %q does not tell the operator to migrate", msg)
	}
}

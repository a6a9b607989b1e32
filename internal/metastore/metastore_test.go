package metastore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
)

func newController(t *testing.T) (*core.Pulse, core.Config) {
	t.Helper()
	cfg := core.Config{Catalog: models.PaperCatalog(), Assignment: models.Assignment{0, 1, 2}}
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Give it some state.
	counts := []int{1, 0, 1}
	for tt := 0; tt < 30; tt++ {
		p.KeepAlive(tt)
		p.RecordInvocations(tt, counts)
	}
	return p, cfg
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty directory accepted")
	}
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "nested", "store"))
	if err != nil {
		t.Fatalf("Open should create directories: %v", err)
	}
	if s == nil {
		t.Fatal("nil store")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, cfg := newController(t)
	if err := s.SaveController("prod-cluster", p); err != nil {
		t.Fatal(err)
	}
	back, err := s.LoadController("prod-cluster", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if back.ResumeMinute() != p.ResumeMinute() {
		t.Errorf("resume minute: %d vs %d", back.ResumeMinute(), p.ResumeMinute())
	}
	// Both controllers make identical decisions going forward. (Fix the
	// bounds before looping: every KeepAlive call advances ResumeMinute.)
	counts := []int{0, 1, 0}
	start := p.ResumeMinute()
	for tt := start; tt < start+20; tt++ {
		a := append([]int(nil), p.KeepAlive(tt)...)
		b := back.KeepAlive(tt)
		for fn := range a {
			if a[fn] != b[fn] {
				t.Fatalf("decisions diverge at minute %d", tt)
			}
		}
		p.RecordInvocations(tt, counts)
		back.RecordInvocations(tt, counts)
	}
}

func TestLoadMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("nope"); !os.IsNotExist(err) {
		t.Errorf("missing snapshot err = %v, want IsNotExist", err)
	}
}

func TestNameValidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := newController(t)
	for _, bad := range []string{"", "../escape", "a/b", "sp ace", "semi;colon"} {
		if err := s.SaveController(bad, p); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if err := s.SaveController("ok-Name_1.v2", p); err != nil {
		t.Errorf("valid name rejected: %v", err)
	}
	if err := s.SaveController("x", nil); err == nil {
		t.Error("nil controller accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
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

	// Flip payload bytes: checksum must catch it.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Checksum string          `json:"checksum"`
		Payload  json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatal(err)
	}
	tampered := []byte(env.Payload)
	for i, b := range tampered {
		if b == '1' {
			tampered[i] = '2'
			break
		}
	}
	env.Payload = tampered
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("c"); err == nil {
		t.Error("tampered snapshot accepted")
	}
	// Total garbage.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("c"); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func TestStoreIOErrorPaths(t *testing.T) {
	dir := t.TempDir()
	// Open where a file occupies the path.
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(blocked); err == nil {
		t.Error("Open over a regular file accepted")
	}
	// A store whose directory disappeared.
	gone := filepath.Join(dir, "gone")
	s, err := Open(gone)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(gone); err != nil {
		t.Fatal(err)
	}
	// Save into the removed directory fails at temp-file creation.
	p, _ := newController(t)
	if err := s.SaveController("x", p); err == nil {
		t.Error("Save into removed directory accepted")
	}
	// Load with an invalid name.
	if _, err := s.Load("../x"); err == nil {
		t.Error("Load with traversal name accepted")
	}
}

func TestLoadControllerMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, cfg := newController(t)
	if _, err := s.LoadController("absent", cfg); !os.IsNotExist(err) {
		t.Errorf("LoadController(missing) err = %v, want IsNotExist", err)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, cfg := newController(t)
	if err := s.SaveController("x", p); err != nil {
		t.Fatal(err)
	}
	// Advance and save again over the same name.
	p.KeepAlive(100)
	p.RecordInvocations(100, []int{1, 1, 1})
	if err := s.SaveController("x", p); err != nil {
		t.Fatal(err)
	}
	back, err := s.LoadController("x", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if back.ResumeMinute() != p.ResumeMinute() {
		t.Errorf("overwrite lost state: %d vs %d", back.ResumeMinute(), p.ResumeMinute())
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1 (temp leak?)", len(entries))
	}
}

// Package metastore persists PULSE controller state — Figure 3's
// "Metadata Store". It journals versioned, checksummed JSON snapshots to
// disk with atomic replace, so a crashed or redeployed controller resumes
// with its inter-arrival histories, downgrade priorities, and peak-detector
// state intact instead of relearning from scratch.
package metastore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/identity"
)

// EnvelopeVersion identifies the on-disk envelope schema. Version 2 added
// the explicit version field itself and switched payloads to identity-keyed
// controller snapshots (core.SnapshotVersion 2). A mismatched version is
// reported as such — distinctly from corruption — so operators know to
// migrate rather than to restore a backup.
const EnvelopeVersion = 2

// envelope is the on-disk format: a schema version, the payload, and an
// integrity checksum over the payload bytes.
type envelope struct {
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"` // hex sha256 of Payload
	Payload  json.RawMessage `json:"payload"`
}

// Store reads and writes snapshots under a directory, one file per
// controller name.
type Store struct {
	dir string
}

// Open prepares a store rooted at dir, creating it if needed. Leftover
// temporary files from a Save interrupted by a crash (written but never
// renamed into place) are swept away: they were never the authoritative
// snapshot, and the atomic-rename protocol guarantees the named snapshot
// file is either the previous complete version or the new complete version.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("metastore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("metastore: %w", err)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err == nil {
		for _, tmp := range leftovers {
			_ = os.Remove(tmp)
		}
	}
	return &Store{dir: dir}, nil
}

// path maps a controller name to its snapshot file. Names follow the same
// rune rules as function identities (identity.ValidateName) — they exclude
// path separators, so a name can never traverse out of the store directory.
// Sharing the validator keeps the two layers in agreement, which
// FuzzFunctionName asserts.
func (s *Store) path(name string) (string, error) {
	if err := identity.ValidateName(name); err != nil {
		return "", fmt.Errorf("metastore: invalid snapshot name: %w", err)
	}
	return filepath.Join(s.dir, name+".snapshot.json"), nil
}

// Save writes the snapshot atomically (write to temp file, fsync, rename).
func (s *Store) Save(name string, snap core.PulseSnapshot) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("metastore: marshal: %w", err)
	}
	sum := sha256.Sum256(payload)
	// Compact marshal: indentation would rewrite the raw payload bytes and
	// break the checksum on load.
	blob, err := json.Marshal(envelope{
		Version:  EnvelopeVersion,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  payload,
	})
	if err != nil {
		return fmt.Errorf("metastore: marshal envelope: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("metastore: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return fmt.Errorf("metastore: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("metastore: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("metastore: close: %w", err)
	}
	if err := os.Rename(tmpName, p); err != nil {
		return fmt.Errorf("metastore: rename: %w", err)
	}
	return nil
}

// Load reads and verifies a snapshot. os.IsNotExist(err) distinguishes a
// missing snapshot from corruption.
func (s *Store) Load(name string) (core.PulseSnapshot, error) {
	var snap core.PulseSnapshot
	p, err := s.path(name)
	if err != nil {
		return snap, err
	}
	blob, err := os.ReadFile(p)
	if err != nil {
		return snap, err // preserves os.IsNotExist
	}
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return snap, fmt.Errorf("metastore: corrupt envelope in %s: %w", p, err)
	}
	if env.Version != EnvelopeVersion {
		return snap, fmt.Errorf("metastore: %s has envelope schema version %d, this build reads version %d — migrate or delete the snapshot",
			p, env.Version, EnvelopeVersion)
	}
	// Hash the canonical (compact) form so cosmetic whitespace differences
	// in the payload do not read as corruption.
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Payload); err != nil {
		return snap, fmt.Errorf("metastore: corrupt payload in %s: %w", p, err)
	}
	sum := sha256.Sum256(compact.Bytes())
	if hex.EncodeToString(sum[:]) != env.Checksum {
		return snap, fmt.Errorf("metastore: checksum mismatch in %s", p)
	}
	if err := json.Unmarshal(env.Payload, &snap); err != nil {
		return snap, fmt.Errorf("metastore: corrupt payload in %s: %w", p, err)
	}
	return snap, nil
}

// SaveController snapshots a live PULSE controller under the name.
func (s *Store) SaveController(name string, p *core.Pulse) error {
	if p == nil {
		return fmt.Errorf("metastore: nil controller")
	}
	return s.Save(name, p.Snapshot())
}

// LoadController restores a PULSE controller from the named snapshot with
// the supplied configuration (which must match the snapshot's fingerprint).
func (s *Store) LoadController(name string, cfg core.Config) (*core.Pulse, error) {
	snap, err := s.Load(name)
	if err != nil {
		return nil, err
	}
	return core.Restore(cfg, snap)
}

package metastore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pulse-serverless/pulse/internal/identity"
)

// FuzzFunctionName asserts the store and the identity layer agree on every
// name: a name the shared validator accepts must be usable as a snapshot
// name (and registrable in an identity registry), a name it rejects must be
// rejected by the store too, and no accepted name may produce a path outside
// the store directory. The metastore deliberately has no validator of its
// own — this fuzz target is the contract that keeps it that way.
func FuzzFunctionName(f *testing.F) {
	for _, seed := range []string{
		"", "prod-cluster", "fn-07", "a/b", "../escape", "..", ".", "名前",
		"UPPER_lower.0-9", "sp ace", "semi;colon", "nul\x00byte", "\xff\xfe",
		strings.Repeat("x", identity.MaxNameLen), strings.Repeat("x", identity.MaxNameLen+1),
	} {
		f.Add(seed)
	}
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, name string) {
		vErr := identity.ValidateName(name)
		p, sErr := s.path(name)
		if (vErr == nil) != (sErr == nil) {
			t.Fatalf("validator and store disagree on %q: validator err %v, store err %v", name, vErr, sErr)
		}
		// Nothing is saved, so a valid name loads as "not found" and an
		// invalid one fails before the store touches the disk.
		_, lErr := s.Load(name)
		if vErr == nil && !os.IsNotExist(lErr) {
			t.Fatalf("valid name %q unusable by Load: %v", name, lErr)
		}
		if vErr != nil && (lErr == nil || os.IsNotExist(lErr)) {
			t.Fatalf("invalid name %q accepted by Load: %v", name, lErr)
		}
		reg, err := identity.NewRegistry(nil)
		if err != nil {
			t.Fatal(err)
		}
		_, rErr := reg.Register(name)
		if (vErr == nil) != (rErr == nil) {
			t.Fatalf("validator and registry disagree on %q: validator err %v, registry err %v", name, vErr, rErr)
		}
		if vErr != nil {
			return
		}
		// Accepted names must never traverse out of the store directory.
		// Note a name like ".." is legal — the ".snapshot.json" suffix makes
		// it the in-directory file "...snapshot.json", not a parent path.
		rel, err := filepath.Rel(dir, p)
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) ||
			strings.ContainsRune(rel, filepath.Separator) {
			t.Fatalf("accepted name %q maps to path %q outside the store (rel %q, err %v)", name, p, rel, err)
		}
	})
}

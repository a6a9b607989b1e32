package roster

import (
	"reflect"
	"strings"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
)

func TestNamesCanonicalOrder(t *testing.T) {
	want := []string{"mpc", "hawkes", "qlearn"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	// Callers may append to or sort the result; that must not leak into
	// the next caller's list.
	Names()[0] = "mutated"
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() after caller mutation = %v, want %v", got, want)
	}
}

func TestParseList(t *testing.T) {
	for _, c := range []struct {
		name, in string
		want     []string
	}{
		{"empty", "", nil},
		{"blank", "  \t ", nil},
		{"single", "mpc", []string{"mpc"}},
		{"trims whitespace", " mpc , hawkes ,qlearn ", []string{"mpc", "hawkes", "qlearn"}},
		{"keeps empty middle element", "mpc,,hawkes", []string{"mpc", "", "hawkes"}},
		{"keeps trailing empty element", "mpc,", []string{"mpc", ""}},
		{"keeps duplicates", "mpc,mpc", []string{"mpc", "mpc"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := ParseList(c.in); !reflect.DeepEqual(got, c.want) {
				t.Errorf("ParseList(%q) = %q, want %q", c.in, got, c.want)
			}
		})
	}
}

// Every roster name builds exactly one entrant that reports that name, so
// the tournament's per-entrant series are keyed by what the flag said.
func TestBuildEachName(t *testing.T) {
	cat := models.PaperCatalog()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			ents, err := Build([]string{name}, cat, cluster.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 {
				t.Fatalf("built %d entrants, want 1", len(ents))
			}
			if got := ents[0].Name(); got != name {
				t.Errorf("entrant name = %q, want %q", got, name)
			}
		})
	}
}

func TestBuildKeepsListOrder(t *testing.T) {
	names := []string{"qlearn", "mpc", "hawkes"}
	ents, err := Build(names, models.PaperCatalog(), cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(ents))
	for i, e := range ents {
		got[i] = e.Name()
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("entrant order = %v, want %v", got, names)
	}
}

// Build's errors are what pulsed prints for a bad -tournament value; each
// names the problem, and the ones about unknown or missing names list the
// registered entrants.
func TestBuildRejects(t *testing.T) {
	for _, c := range []struct {
		name     string
		in       []string
		wantErr  string
		listsAll bool
	}{
		{"empty list", nil, "empty entrant list", true},
		{"empty element", ParseList("mpc,,hawkes"), "empty entrant name", true},
		{"duplicate", ParseList("mpc, hawkes, mpc"), `duplicate entrant "mpc"`, false},
		{"unknown", []string{"hawkes", "oracle"}, `unknown entrant "oracle"`, true},
		{"case sensitive", []string{"MPC"}, `unknown entrant "MPC"`, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ents, err := Build(c.in, models.PaperCatalog(), cluster.DefaultCostModel())
			if err == nil {
				t.Fatalf("Build(%q) = %d entrants, want an error", c.in, len(ents))
			}
			if ents != nil {
				t.Errorf("Build(%q) returned entrants beside its error", c.in)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
			if lists := strings.Contains(err.Error(), strings.Join(Names(), ", ")); lists != c.listsAll {
				t.Errorf("error %q lists the registered entrants = %v, want %v", err, lists, c.listsAll)
			}
		})
	}
}

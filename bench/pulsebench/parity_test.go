package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"testing"
)

// The in-process assembly (scale100k, every traced run) must be the system a
// spawned pulsed is: for each workload's flags, both report the same feature
// set on /healthz — mode, telemetry, attribution, provenance, tournament
// entrants, alert engine and its rule count. If cmd/pulsed's wiring drifts,
// this fails instead of the bench quietly measuring something else.
func TestAssemblyMatchesSpawnedPulsed(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available: cannot build pulsed")
	}
	root, err := findRoot("")
	if err != nil {
		t.Skip(err)
	}
	bin, _, err := buildPulsed(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	for name, f := range map[string]features{"default": defaultFeatures(), "full": fullFeatures()} {
		t.Run(name, func(t *testing.T) {
			d, err := spawn(bin, f.flags())
			if err != nil {
				t.Fatal(err)
			}
			c, err := dialConn(d.addr)
			if err != nil {
				t.Fatal(err)
			}
			var spawned healthz
			err = getJSON(c, "/healthz", &spawned)
			c.close()
			if err != nil {
				t.Fatal(err)
			}
			if err := d.stop(); err != nil {
				t.Errorf("daemon did not stop cleanly: %v", err)
			}

			cat, asg := pulsedAssignment()
			asm, err := buildAssembly(f, cat, asg, hooks{})
			if err != nil {
				t.Fatal(err)
			}
			defer asm.close()
			rec := httptest.NewRecorder()
			asm.api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			var inproc healthz
			if err := json.Unmarshal(rec.Body.Bytes(), &inproc); err != nil {
				t.Fatal(err)
			}

			if got, want := inproc.featureSet(), spawned.featureSet(); got != want {
				t.Errorf("feature sets differ:\n in-process %s\n pulsed     %s", got, want)
			}
			if inproc.Functions != spawned.Functions {
				t.Errorf("in-process starts with %d functions, pulsed with %d", inproc.Functions, spawned.Functions)
			}
			if msg := f.mismatch(spawned); msg != "" {
				t.Errorf("pulsed %v does not report the features asked for: %s", f.flags(), msg)
			}
		})
	}
}

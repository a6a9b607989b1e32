package main

import (
	"fmt"
	"io"
	"log"
	"reflect"
	"strings"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/alert"
	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/runtime"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
	"github.com/pulse-serverless/pulse/internal/tournament/roster"
)

// features is the part of pulsed's command line that decides which layers
// are wired: the spawned daemon gets it as flags, the in-process assembly
// builds the same chain from it, and /healthz reports it back from both (the
// chain-parity test compares the two).
//
// Telemetry and the provenance recorder (-provenance-window 64) are pulsed's
// defaults and are always on.
type features struct {
	attribution bool
	alerts      bool
	tournament  []string
}

func defaultFeatures() features { return features{} }

func fullFeatures() features {
	return features{attribution: true, alerts: true, tournament: roster.Names()}
}

// flags renders the features as pulsed flags (beyond -addr and -compress).
func (f features) flags() []string {
	var out []string
	if f.attribution {
		out = append(out, "-attribution")
	}
	if f.alerts {
		out = append(out, "-alerts")
	}
	if len(f.tournament) > 0 {
		out = append(out, "-tournament", strings.Join(f.tournament, ","))
	}
	return out
}

// healthz is the feature-bearing part of GET /healthz.
type healthz struct {
	Mode               string
	Minute             int
	Functions          int
	Telemetry          bool
	Attribution        bool
	Provenance         bool
	TournamentEntrants []string
	Alerts             struct {
		Enabled bool
		Rules   int
	}
}

// featureSet renders the fields that identify which system is being
// measured, leaving out the ones that vary run to run.
func (h healthz) featureSet() string {
	return fmt.Sprintf("mode=%s telemetry=%t attribution=%t provenance=%t entrants=%v alerts=%t rules=%d",
		h.Mode, h.Telemetry, h.Attribution, h.Provenance, h.TournamentEntrants, h.Alerts.Enabled, h.Alerts.Rules)
}

// mismatch reports how a /healthz reply differs from what these features
// should produce ("" when it matches).
func (f features) mismatch(h healthz) string {
	var entrants []string
	if f.attribution {
		entrants = append([]string{attribution.BaselineFixedHigh, attribution.BaselineNever, attribution.BaselineOracle}, f.tournament...)
	}
	switch {
	case h.Mode != runtime.ModeEpoch:
		return "mode " + h.Mode
	case !h.Telemetry:
		return "telemetry off"
	case h.Attribution != f.attribution:
		return fmt.Sprintf("attribution %t", h.Attribution)
	case !h.Provenance:
		return "provenance off"
	case h.Alerts.Enabled != f.alerts:
		return fmt.Sprintf("alerts %t", h.Alerts.Enabled)
	case !reflect.DeepEqual(h.TournamentEntrants, entrants):
		return fmt.Sprintf("tournament entrants %v, want %v", h.TournamentEntrants, entrants)
	}
	return ""
}

// hooks lets the traced run wrap each layer boundary as the assembly is
// built. Nil members leave the layer undecorated, so the untraced assembly
// is exactly pulsed's.
type hooks struct {
	observer func(layer string, o telemetry.Observer) telemetry.Observer
	policy   func(p *core.Pulse) cluster.Policy
	entrant  func(e tournament.ShadowEntrant) tournament.ShadowEntrant
}

// assembly is the in-process equivalent of a running pulsed: the PULSE
// controller, the observer chain in pulsed's order (telemetry, attribution,
// provenance, alerts), the runtime, and the API handler, built by the same
// constructor calls cmd/pulsed/main.go makes. scale100k uses it because
// registering 100 000 functions over HTTP is quadratic; the traced runs use
// it because the decorators have to sit between the layers.
type assembly struct {
	controller *core.Pulse
	rt         *runtime.Runtime
	api        *runtime.API
	engine     *alert.Engine
}

// discardLog silences pulsed's alert LogSink inside the bench process; the
// engine still formats and delivers every notification.
var discardLog = log.New(io.Discard, "", 0)

func buildAssembly(f features, cat *models.Catalog, asg models.Assignment, h hooks) (*assembly, error) {
	tel, err := telemetry.New(telemetry.Config{EventCapacity: telemetry.DefaultEventCapacity})
	if err != nil {
		return nil, err
	}
	stream := alert.NewBroadcaster()
	tel.Events().Tap(stream.EventTap())

	wrap := func(layer string, o telemetry.Observer) telemetry.Observer {
		if h.observer != nil {
			return h.observer(layer, o)
		}
		return o
	}
	chain := []telemetry.Observer{wrap("telemetry", tel)}
	var acct *attribution.Accountant
	if f.attribution {
		acfg := attribution.Config{Catalog: cat, Assignment: asg, Window: cluster.DefaultKeepAliveWindow}
		if len(f.tournament) > 0 {
			if acfg.Entrants, err = roster.Build(f.tournament, cat, cluster.DefaultCostModel()); err != nil {
				return nil, err
			}
			if h.entrant != nil {
				for i, e := range acfg.Entrants {
					acfg.Entrants[i] = h.entrant(e)
				}
			}
		}
		if acct, err = attribution.New(acfg); err != nil {
			return nil, err
		}
		chain = append(chain, wrap("attribution", acct))
	}
	prov, err := provenance.NewRecorder(provenance.RecorderConfig{
		Catalog: cat, Assignment: asg, Names: identity.DefaultNames(len(asg)), Window: provenance.DefaultWindow,
	})
	if err != nil {
		return nil, err
	}
	chain = append(chain, wrap("provenance", prov))
	var engine *alert.Engine
	if f.alerts {
		if engine, err = alert.NewEngine(alert.Config{
			Rules:       alert.DefaultRules(f.attribution),
			Sinks:       []alert.Sink{&alert.LogSink{Logger: discardLog}},
			Attribution: acct,
			Stream:      stream,
		}); err != nil {
			return nil, err
		}
		chain = append(chain, wrap("alert", engine))
	}
	obs := telemetry.Multi(chain...)

	controller, err := core.New(core.Config{Catalog: cat, Assignment: asg, Observer: obs})
	if err != nil {
		engine.Close()
		return nil, err
	}
	var policy cluster.Policy = controller
	if h.policy != nil {
		policy = h.policy(controller)
	}
	rt, err := runtime.New(runtime.Config{
		Catalog:    cat,
		Assignment: asg,
		Policy:     policy,
		Clock:      runtime.WallClock{Compression: 600},
		Observer:   obs,
	})
	if err != nil {
		controller.Close()
		engine.Close()
		return nil, err
	}
	api, err := runtime.NewInstrumentedAPI(rt, tel)
	if err != nil {
		rt.Close()
		engine.Close()
		return nil, err
	}
	if acct != nil {
		api.AttachAttribution(acct)
	}
	api.AttachProvenance(prov)
	api.AttachStream(stream)
	api.AttachAlerts(engine)
	return &assembly{controller: controller, rt: rt, api: api, engine: engine}, nil
}

// close tears the assembly down in pulsed's order: the runtime (and with it
// the controller's worker pool) first, then the alert engine's delivery
// goroutine.
func (a *assembly) close() {
	a.rt.Close()
	a.engine.Close()
}

// pulsedAssignment is the population pulsed starts with.
func pulsedAssignment() (*models.Catalog, models.Assignment) {
	cat := pulse.Catalog()
	return cat, pulse.UniformAssignment(cat, builtinFunctions)
}

// Command pulsed is a live PULSE-managed serverless daemon: it registers
// the paper's model catalog behind 12 functions, runs the PULSE keep-alive
// controller on a (time-compressed) minute tick, and serves invocations
// over HTTP.
//
//	pulsed -addr :8080 -compress 60     # one simulated minute per second
//
// The full HTTP surface (runtime.Endpoints is authoritative; a test holds
// this list in sync):
//
//	POST /invoke?fn=N      run one invocation, returns the Invocation JSON
//	GET  /stats            runtime counters
//	GET  /functions        registered functions, their models and warm state
//	POST /functions        register a function online (JSON {"name","family"}), returns its slot
//	DELETE /functions/{name}  deregister the named function; its slot is tombstoned, later invokes return 410
//	GET  /metrics          Prometheus text exposition (labeled series when instrumented)
//	GET  /events           decision event log (requires telemetry)
//	GET  /decisions        Algorithm 1/2 audit: downgrades with Uv = Ai+Pr+Ip, peak episodes
//	GET  /attribution      per-function counterfactual savings vs shadow baselines (requires attribution)
//	GET  /timeseries       attribution series for one metric, incl. savings_vs_<entrant>_usd (?metric=&window=&res=; requires attribution)
//	GET  /top              function ranking by savings, downgrades, cold-start risk, or ?by=policy tournament standings; text or ?format=json (requires attribution)
//	GET  /why              decision provenance for one function: Algorithm 1/2 inputs and outputs behind its recent keep-alive choices (?fn=&minute=&n=; requires provenance)
//	GET  /traces           sampled invocation spans: minute, variant, cold/warm, seqlock retries, latency (requires -trace-sample)
//	GET  /stream           live Server-Sent Events: decision log, minute rollups, alert transitions, sampled traces
//	GET  /dashboard        embedded single-page live ops dashboard
//	GET  /healthz          daemon health JSON: uptime, go version, runtime mode, population, minute, tracer and alert-engine status
//
// With -debug, the Go pprof and expvar surfaces are mounted under
// /debug/pprof/ and /debug/vars. With -eventlog FILE, every controller
// decision event is appended to FILE as JSON lines; if a write fails, the
// log stops there and the daemon exits non-zero at shutdown.
//
// With -attribution, an online counterfactual accountant shadows the live
// policy against the paper's fixed keep-alive baseline (window set by
// -attribution-window), a never-keep-alive policy, and a hindsight oracle,
// serving per-function savings through /attribution, /timeseries, and
// /top.
//
// With -tournament LIST (comma-separated roster entrants, e.g.
// mpc,hawkes,qlearn; implies -attribution), the accountant additionally
// races the named shadow keep-alive policies on the same sample stream.
// Standings are served at /top?by=policy, per-entrant ledgers in the
// /attribution tournament section, and per-minute deltas as
// savings_vs_<entrant>_usd on /timeseries. An empty, duplicate, or
// unknown entrant name is a usage error naming the registered entrants.
//
// With -provenance-window N (the default is 64; 0 disables), a decision
// provenance recorder rides the observer chain and retains each function's
// last N keep-alive decisions — the invocation probabilities, peak window,
// priority rank, and memory budget Algorithms 1 and 2 saw, and the variant
// they chose versus the unconstrained plan — served as GET /why. It also
// carries the runtime's self-observability series (step_latency_us,
// seqlock_retries) on /timeseries. With -trace-sample K, one in K
// invocations is traced through the serving fast path (cold/warm, variant,
// seqlock retries, wall latency) into GET /traces and the SSE stream; 0
// keeps tracing off and the Invoke path allocation-free.
//
// With -alerts, a threshold rule engine watches the per-minute stream and
// emits firing/resolved notifications to the log, the SSE stream, and —
// with -webhook URL — an HTTP endpoint (JSON POST, retried with backoff).
// The default rules cover cold-start spikes, keep-alive memory peaks,
// invocations of deregistered functions, and (with -attribution) savings
// regressions versus the fixed baseline; -alert-rules FILE replaces them
// with a rule file (one "<name> <metric> <op> <threshold> [for=N]
// [cooldown=N]" per line). -alert-rules and -webhook imply -alerts.
//
// With -demo, a background workload generator issues invocations drawn from
// the synthetic trace archetypes so the keep-alive behaviour is visible
// without external traffic.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/alert"
	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/metastore"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/runtime"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament/roster"
	"github.com/pulse-serverless/pulse/internal/trace"
)

func main() {
	if err := run(); err != nil && err != context.Canceled {
		fmt.Fprintln(os.Stderr, "pulsed:", err)
		os.Exit(1)
	}
}

// tickInterval converts the -compress factor into the wall-clock interval
// between simulated minutes. Non-positive and non-finite factors are
// rejected up front: compress 0 used to overflow into a never-firing
// ticker, so the daemon served traffic but silently stopped advancing
// minutes. Factors in (0, 1) are valid slow motion (intervals longer than
// a minute); absurdly large factors that round the interval down to zero
// are rejected too.
func tickInterval(compress float64) (time.Duration, error) {
	if compress <= 0 || math.IsNaN(compress) || math.IsInf(compress, 0) {
		return 0, fmt.Errorf("-compress must be a positive, finite factor (got %v): 1 = real time, 60 = one simulated minute per wall second, 0.5 = slow motion", compress)
	}
	iv := time.Duration(float64(time.Minute) / compress)
	if iv <= 0 {
		return 0, fmt.Errorf("-compress %v is too large: the minute tick interval rounds to zero", compress)
	}
	return iv, nil
}

// loadOrColdController restores the PULSE controller from the metadata
// store, or builds a fresh one when no usable snapshot exists. Only a
// missing snapshot is silent; a corrupted, truncated, or
// schema-incompatible snapshot must not keep the daemon down, so it is
// logged and the controller relearns from scratch. The bad file stays on
// disk for inspection until the next successful save replaces it.
func loadOrColdController(store *metastore.Store, name, dir string, cfg core.Config) (*core.Pulse, error) {
	controller, err := store.LoadController(name, cfg)
	switch {
	case err == nil:
		log.Printf("pulsed: restored PULSE state from %s (resume minute %d)", dir, controller.ResumeMinute())
		return controller, nil
	case os.IsNotExist(err):
		return core.New(cfg)
	default:
		log.Printf("pulsed: cannot restore state from %s (%v); starting cold", dir, err)
		return core.New(cfg)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	compress := flag.Float64("compress", 60, "time compression (60 = one simulated minute per wall second)")
	policyName := flag.String("policy", "pulse", "keep-alive policy: pulse or openwhisk")
	shards := flag.Int("shards", 0, "PULSE controller shards (0 = GOMAXPROCS, 1 = serial on the caller); decisions are identical at every count")
	demo := flag.Bool("demo", false, "generate background demo traffic")
	seed := flag.Int64("seed", 1, "demo traffic seed")
	stateDir := flag.String("statedir", "", "metadata store directory: PULSE state is restored on start and saved on shutdown")
	debug := flag.Bool("debug", false, "expose /debug/pprof/* and /debug/vars")
	eventCap := flag.Int("event-capacity", telemetry.DefaultEventCapacity, "decision event ring capacity")
	eventLog := flag.String("eventlog", "", "append decision events as JSON lines to this file")
	attrib := flag.Bool("attribution", false, "run counterfactual cost attribution (shadow baselines, /attribution /timeseries /top)")
	attribWindow := flag.Int("attribution-window", cluster.DefaultKeepAliveWindow, "fixed-baseline keep-alive window in minutes for attribution")
	tournamentList := flag.String("tournament", "", "comma-separated shadow entrants to race in the policy tournament (registered: "+strings.Join(roster.Names(), ", ")+"); implies -attribution")
	provWindow := flag.Int("provenance-window", provenance.DefaultWindow, "per-function decision provenance ring window in minutes for /why (0 disables provenance)")
	traceSample := flag.Int64("trace-sample", 0, "trace 1 in K invocations into /traces and the SSE stream (0 disables tracing)")
	alerts := flag.Bool("alerts", false, "evaluate threshold alert rules at the minute barrier (default rules unless -alert-rules)")
	alertRules := flag.String("alert-rules", "", "alert rule file (one '<name> <metric> <op> <threshold> [for=N] [cooldown=N]' per line); implies -alerts")
	webhook := flag.String("webhook", "", "POST alert notifications as JSON to this URL (retried with backoff); implies -alerts")
	flag.Parse()
	*alerts = *alerts || *alertRules != "" || *webhook != ""
	*attrib = *attrib || *tournamentList != ""

	tickEvery, err := tickInterval(*compress)
	if err != nil {
		return err
	}

	cat := pulse.Catalog()
	const nFunctions = 12
	asg := pulse.UniformAssignment(cat, nFunctions)

	var sink *os.File
	if *eventLog != "" {
		var err error
		if sink, err = os.OpenFile(*eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return err
		}
		defer sink.Close()
	}
	telCfg := telemetry.Config{EventCapacity: *eventCap}
	if sink != nil {
		telCfg.EventSink = sink
	}
	tel, err := telemetry.New(telCfg)
	if err != nil {
		return err
	}

	// The live-event broadcaster is always on: with no /stream subscribers
	// a publish is one atomic load, and the tap republishes every decision
	// event to whoever is watching.
	stream := alert.NewBroadcaster()
	tel.Events().Tap(stream.EventTap())

	// The controller and runtime share one observer chain; with
	// -attribution the accountant rides alongside the metrics pipeline on
	// the same stream, the provenance recorder follows it, and with
	// -alerts the rule engine is attached LAST, so by the time it closes a
	// minute the accountant has already priced it (the savings rule reads
	// the accountant's ring).
	chain := []telemetry.Observer{tel}
	var acct *attribution.Accountant
	var entrantNames []string
	if *attrib {
		acfg := attribution.Config{Catalog: cat, Assignment: asg, Window: *attribWindow}
		if *tournamentList != "" {
			// roster.Build rejects empty elements, duplicates, and unknown
			// names with an error naming the registered entrants — surface
			// that as the flag's usage error.
			entrantNames = roster.ParseList(*tournamentList)
			if acfg.Entrants, err = roster.Build(entrantNames, cat, cluster.DefaultCostModel()); err != nil {
				return fmt.Errorf("-tournament: %w", err)
			}
		}
		if acct, err = attribution.New(acfg); err != nil {
			return err
		}
		chain = append(chain, acct)
	}
	var prov *provenance.Recorder
	if *provWindow > 0 {
		if prov, err = provenance.NewRecorder(provenance.RecorderConfig{
			Catalog:    cat,
			Assignment: asg,
			Names:      identity.DefaultNames(nFunctions),
			Window:     *provWindow,
		}); err != nil {
			return err
		}
		chain = append(chain, prov)
	}
	var engine *alert.Engine
	if *alerts {
		rules := alert.DefaultRules(*attrib)
		if *alertRules != "" {
			f, err := os.Open(*alertRules)
			if err != nil {
				return err
			}
			rules, err = alert.ParseRules(f)
			f.Close()
			if err != nil {
				return err
			}
		}
		sinks := []alert.Sink{&alert.LogSink{}}
		if *webhook != "" {
			sinks = append(sinks, alert.NewWebhookSink(*webhook))
		}
		if engine, err = alert.NewEngine(alert.Config{
			Rules: rules, Sinks: sinks, Attribution: acct, Stream: stream,
		}); err != nil {
			return err
		}
		defer engine.Close() // after rt.Close: producers stop before the queue drains
		chain = append(chain, engine)
		log.Printf("pulsed: alerting enabled (%d rules, webhook %v)", len(rules), *webhook != "")
	}
	var obs telemetry.Observer = tel
	if len(chain) > 1 {
		obs = telemetry.Multi(chain...)
	}

	var p pulse.Policy
	var store *metastore.Store
	var controller *core.Pulse
	const snapshotName = "pulsed"
	switch *policyName {
	case "pulse":
		cfg := core.Config{Catalog: cat, Assignment: asg, Observer: obs, Shards: *shards}
		if *stateDir != "" {
			if store, err = metastore.Open(*stateDir); err != nil {
				return err
			}
			controller, err = loadOrColdController(store, snapshotName, *stateDir, cfg)
		} else {
			controller, err = core.New(cfg)
		}
		p = controller
	case "openwhisk":
		p, err = pulse.NewBaseline(pulse.BaselineOpenWhisk, cat, asg)
	default:
		return fmt.Errorf("unknown policy %q", *policyName)
	}
	if err != nil {
		return err
	}

	// The tracer taps every sampled span into the SSE stream; with no
	// /stream subscribers a publish is one atomic load.
	var tracer *provenance.Tracer
	if *traceSample > 0 {
		tracer = provenance.NewTracer(provenance.TracerConfig{Stride: *traceSample})
		tracer.Tap(func(tr provenance.Trace) { stream.Publish(alert.StreamTrace, tr) })
		log.Printf("pulsed: invocation tracing enabled (1 in %d)", *traceSample)
	}

	rt, err := runtime.New(runtime.Config{
		Catalog:    cat,
		Assignment: asg,
		Policy:     p,
		Clock:      runtime.WallClock{Compression: *compress},
		Observer:   obs,
		Tracer:     tracer,
	})
	if err != nil {
		return err
	}
	defer rt.Close() // runs after the handler drain below; stragglers get ErrClosed
	if controller != nil {
		log.Printf("pulsed: PULSE controller running with %d shard(s)", controller.Shards())
	}
	api, err := runtime.NewInstrumentedAPI(rt, tel)
	if err != nil {
		return err
	}
	if acct != nil {
		api.AttachAttribution(acct)
		log.Printf("pulsed: attribution enabled (fixed baseline window %d min)", acct.Window())
		if len(entrantNames) > 0 {
			log.Printf("pulsed: policy tournament racing %s (/top?by=policy)", strings.Join(entrantNames, ", "))
		}
	}
	if prov != nil {
		api.AttachProvenance(prov)
		log.Printf("pulsed: decision provenance enabled (/why, ring window %d min)", *provWindow)
	}
	api.AttachStream(stream)
	api.AttachAlerts(engine)

	var handler http.Handler = api
	if *debug {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
		mux.Handle("/", api)
		handler = mux
		log.Printf("pulsed: debug surface enabled at /debug/pprof and /debug/vars")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Minute ticker, compressed. The ticker exits cleanly when the
	// runtime is closed underneath it.
	go func() {
		err := runtime.Ticker(ctx, rt, tickEvery)
		if err != nil && err != context.Canceled && !errors.Is(err, runtime.ErrClosed) {
			log.Println("ticker:", err)
		}
	}()

	if *demo {
		go demoTraffic(ctx, rt, *seed, tickEvery)
	}

	srv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	log.Printf("pulsed: %d functions, policy %s, %s runtime, %s per simulated minute, listening on %s",
		nFunctions, p.Name(), rt.Mode(), tickEvery, *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	// Shutdown ordering: ListenAndServe returns as soon as Shutdown is
	// initiated, while in-flight /invoke requests may still be draining.
	// Wait for the drain to finish before the deferred rt.Close() closes
	// the runtime (any straggler past the timeout gets ErrClosed from the
	// runtime's closed guard).
	<-drained
	st := rt.Stats()
	log.Printf("pulsed: served %d invocations (%d warm, %d cold), keep-alive $%.4f, accuracy %.2f%%",
		st.Invocations, st.WarmStarts, st.ColdStarts, st.KeepAliveCostUSD, st.MeanAccuracyPct())
	if acct != nil {
		rep := acct.Report()
		log.Printf("pulsed: attribution — $%.4f and %.1f GB-min saved vs fixed-%d-min baseline, %+d cold starts avoided",
			rep.Total.VsFixed.KeepAliveCostUSD, rep.Total.VsFixed.KeepAliveGBMinutes,
			acct.Window(), rep.Total.VsFixed.ColdStartsAvoided)
	}
	if store != nil && controller != nil {
		if err := store.SaveController(snapshotName, controller); err != nil {
			return fmt.Errorf("saving state: %w", err)
		}
		log.Printf("pulsed: saved PULSE state to %s", *stateDir)
	}
	// A failed sink stops the JSONL log while the daemon keeps serving;
	// the exit status is where a truncated -eventlog file shows.
	if err := tel.Events().SinkErr(); err != nil {
		return fmt.Errorf("event log %s stopped early: %w", *eventLog, err)
	}
	return nil
}

// demoTraffic issues invocations per simulated minute, drawn from the
// default synthetic archetype mix.
func demoTraffic(ctx context.Context, rt *runtime.Runtime, seed int64, tickEvery time.Duration) {
	archetypes := trace.AzureLikeArchetypes()
	rngs := make([]*rand.Rand, len(archetypes))
	series := make([][]int, len(archetypes))
	const chunk = 24 * 60 // pre-generate a day at a time
	for i := range archetypes {
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
		series[i] = archetypes[i].Generate(rngs[i], chunk)
	}
	minute := 0
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			idx := minute % chunk
			if idx == 0 && minute > 0 {
				for i := range archetypes {
					series[i] = archetypes[i].Generate(rngs[i], chunk)
				}
			}
			for fn := range series {
				if fn >= rt.NumFunctions() {
					break
				}
				for n := 0; n < series[fn][idx]; n++ {
					if _, err := rt.Invoke(fn); err != nil {
						if errors.Is(err, runtime.ErrClosed) {
							return
						}
						log.Println("demo invoke:", err)
					}
				}
			}
			minute++
		}
	}
}

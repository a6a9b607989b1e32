package core

import (
	"fmt"

	"github.com/pulse-serverless/pulse/internal/cluster"
)

// This file implements state checkpointing for PULSE — the persistence
// behind Figure 3's "Metadata Store". A snapshot captures everything the
// controller has learned (inter-arrival histories, downgrade priorities,
// peak-detector state) plus the in-flight keep-alive plans, so a restored
// controller continues with decisions bit-identical to an uninterrupted
// one.

// SnapshotVersion identifies the snapshot schema. Version 2 keys
// per-function state by function name (identity) instead of by slot index,
// so a snapshot survives online registration and deregistration: restore
// matches entries to the configured population by name, functions present
// only in the configuration start cold, and entries naming functions absent
// from the configuration are an error.
const SnapshotVersion = 2

// GapCount is one histogram bucket: Count observations of Gap minutes.
type GapCount struct {
	Gap   int `json:"gap"`
	Count int `json:"count"`
}

// TimedGapSnapshot is one local-window observation.
type TimedGapSnapshot struct {
	Minute int `json:"minute"`
	Gap    int `json:"gap"`
}

// HistorySnapshot captures one function's History.
type HistorySnapshot struct {
	LastInvocation int                `json:"lastInvocation"`
	Global         []GapCount         `json:"global"`
	LocalQueue     []TimedGapSnapshot `json:"localQueue"`
}

// Snapshot captures the history's state.
func (h *History) Snapshot() HistorySnapshot {
	s := HistorySnapshot{LastInvocation: h.ar.lastInv[h.fn]}
	for _, gap := range h.ar.globalValues(h.fn) {
		s.Global = append(s.Global, GapCount{Gap: gap, Count: h.ar.globalCount(h.fn, gap)})
	}
	for _, tg := range h.ar.queue[h.fn] {
		s.LocalQueue = append(s.LocalQueue, TimedGapSnapshot{Minute: tg.minute, Gap: tg.gap})
	}
	return s
}

// restoreHistoryInto rebuilds one arena slot's history from a snapshot. The
// slot must be empty (fresh or released).
func restoreHistoryInto(ar *histArena, fn int, s HistorySnapshot) error {
	ar.lastInv[fn] = s.LastInvocation
	for _, gc := range s.Global {
		if gc.Count <= 0 {
			return fmt.Errorf("core: snapshot has non-positive count %d for gap %d", gc.Count, gc.Gap)
		}
		for i := 0; i < gc.Count; i++ {
			if err := ar.addGlobal(fn, gc.Gap); err != nil {
				return fmt.Errorf("core: snapshot gap %d: %w", gc.Gap, err)
			}
		}
	}
	for _, tg := range s.LocalQueue {
		if err := ar.addLocal(fn, tg.Gap); err != nil {
			return fmt.Errorf("core: snapshot local gap %d: %w", tg.Gap, err)
		}
		ar.queue[fn] = append(ar.queue[fn], timedGap{minute: tg.Minute, gap: tg.Gap})
	}
	return nil
}

// DetectorSnapshot captures a PeakDetector.
type DetectorSnapshot struct {
	Elapsed     int       `json:"elapsed"`
	PrevKaM     float64   `json:"prevKaM"`
	LastNonZero float64   `json:"lastNonZero"` // +Inf encoded as -1
	Window      []float64 `json:"window"`
}

// Snapshot captures the detector's state.
func (p *PeakDetector) Snapshot() DetectorSnapshot {
	s := DetectorSnapshot{
		Elapsed: p.elapsed,
		PrevKaM: p.prevKaM,
		Window:  p.window.Values(),
	}
	if p.elapsed == 0 {
		s.PrevKaM = 0
	}
	s.LastNonZero = p.lastNonZero
	if s.LastNonZero > 1e300 { // +Inf is not JSON-encodable
		s.LastNonZero = -1
	}
	return s
}

// restoreDetector rebuilds a PeakDetector from a snapshot.
func restoreDetector(threshold float64, localWindow int, mode PriorMode, s DetectorSnapshot) (*PeakDetector, error) {
	d, err := NewPeakDetector(threshold, localWindow, mode)
	if err != nil {
		return nil, err
	}
	if s.Elapsed < 0 {
		return nil, fmt.Errorf("core: snapshot has negative elapsed %d", s.Elapsed)
	}
	if len(s.Window) > localWindow {
		return nil, fmt.Errorf("core: snapshot window of %d exceeds local window %d", len(s.Window), localWindow)
	}
	for _, v := range s.Window {
		if v < 0 {
			return nil, fmt.Errorf("core: snapshot window has negative keep-alive memory %v", v)
		}
		d.window.Push(v)
	}
	d.elapsed = s.Elapsed
	if s.Elapsed > 0 {
		d.prevKaM = s.PrevKaM
	}
	if s.LastNonZero >= 0 {
		d.lastNonZero = s.LastNonZero
	}
	return d, nil
}

// PlanEntry is one in-flight keep-alive commitment: variant to keep alive
// at an absolute minute, with the invocation probability that chose it.
type PlanEntry struct {
	Minute  int     `json:"minute"`
	Variant int     `json:"variant"`
	Prob    float64 `json:"prob"`
}

// FunctionSnapshot captures one registered function's learned state, keyed
// by its stable name.
type FunctionSnapshot struct {
	Name          string          `json:"name"`
	Family        int             `json:"family"`
	History       HistorySnapshot `json:"history"`
	Plans         []PlanEntry     `json:"plans,omitempty"`
	PriorityCount float64         `json:"priorityCount"`
}

// PulseSnapshot captures a full PULSE controller.
type PulseSnapshot struct {
	Version int `json:"version"`

	// Configuration fingerprint: restoring requires a matching config.
	Window       int     `json:"window"`
	LocalWindow  int     `json:"localWindow"`
	KaMThreshold float64 `json:"kamThreshold"`
	Technique    string  `json:"technique"`

	// Functions holds one identity-keyed entry per *active* function.
	// Tombstoned slots carry no learned state and are not persisted; a
	// restored controller renumbers the survivors densely from its
	// configured population.
	Functions []FunctionSnapshot `json:"functions"`

	Detector        DetectorSnapshot `json:"detector"`
	TotalDowngrades int              `json:"totalDowngrades"`
	PeakMinutes     int              `json:"peakMinutes"`
}

// Snapshot captures the controller's learned state.
func (p *Pulse) Snapshot() PulseSnapshot {
	s := PulseSnapshot{
		Version:         SnapshotVersion,
		Window:          p.cfg.Window,
		LocalWindow:     p.cfg.LocalWindow,
		KaMThreshold:    p.cfg.KaMThreshold,
		Technique:       p.cfg.Technique.Name(),
		Detector:        p.detector.Snapshot(),
		TotalDowngrades: p.totalDowngrades,
		PeakMinutes:     p.peakMinutes,
	}
	for fn := range p.cfg.Assignment {
		if !p.reg.Active(fn) {
			continue
		}
		h := History{ar: p.hist, fn: fn}
		fs := FunctionSnapshot{
			Name:          p.reg.Name(fn),
			Family:        p.cfg.Assignment[fn],
			History:       h.Snapshot(),
			PriorityCount: p.global.Priority().Count(fn),
		}
		if p.plans.hasRow(fn) {
			base := int(p.plans.row[fn]) * p.plans.stride
			for i := 0; i < p.plans.stride; i++ {
				if minute := p.plans.minutes[base+i]; minute >= 0 {
					fs.Plans = append(fs.Plans, PlanEntry{
						Minute:  minute,
						Variant: int(p.plans.variants[base+i]),
						Prob:    p.plans.probs[base+i],
					})
				}
			}
		}
		s.Functions = append(s.Functions, fs)
	}
	return s
}

// Restore builds a PULSE controller from a configuration and a snapshot
// previously taken with a compatible configuration. Snapshot state is
// matched to the configured population by function name: a configured
// function without a snapshot entry starts cold (the rule for functions
// registered after the snapshot was taken), while a snapshot entry naming a
// function outside the configuration is an error.
func Restore(cfg Config, s PulseSnapshot) (*Pulse, error) {
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot schema version %d, this build reads version %d", s.Version, SnapshotVersion)
	}
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	eff := p.Config()
	if s.Window != eff.Window || s.LocalWindow != eff.LocalWindow ||
		s.KaMThreshold != eff.KaMThreshold || s.Technique != eff.Technique.Name() {
		return nil, fmt.Errorf("core: snapshot taken under different configuration (window %d/%d, local %d/%d, KM_T %v/%v, technique %s/%s)",
			s.Window, eff.Window, s.LocalWindow, eff.LocalWindow,
			s.KaMThreshold, eff.KaMThreshold, s.Technique, eff.Technique.Name())
	}
	byName := make(map[string]*FunctionSnapshot, len(s.Functions))
	for i := range s.Functions {
		fs := &s.Functions[i]
		if _, dup := byName[fs.Name]; dup {
			return nil, fmt.Errorf("core: snapshot has two entries for function %q", fs.Name)
		}
		byName[fs.Name] = fs
	}
	restored := 0
	for fn, name := range eff.Names {
		fs, ok := byName[name]
		if !ok {
			continue // configured but not snapshotted: starts cold
		}
		restored++
		if fs.Family != eff.Assignment[fn] {
			return nil, fmt.Errorf("core: snapshot assigns function %q family %d, config assigns %d",
				name, fs.Family, eff.Assignment[fn])
		}
		if err := restoreHistoryInto(p.hist, fn, fs.History); err != nil {
			return nil, fmt.Errorf("core: function %q: %w", name, err)
		}
		fam := eff.Catalog.Families[eff.Assignment[fn]]
		for _, e := range fs.Plans {
			if e.Minute < 0 {
				return nil, fmt.Errorf("core: function %q plan at negative minute %d", name, e.Minute)
			}
			if e.Variant < 0 || e.Variant >= fam.NumVariants() {
				return nil, fmt.Errorf("core: function %q plan keeps invalid variant %d", name, e.Variant)
			}
			p.plans.ensureRow(fn)
			p.plans.set(fn, e.Minute, e.Variant, e.Prob)
			if e.Minute > p.plans.expiry[fn] {
				p.plans.expiry[fn] = e.Minute
			}
			p.active.add(fn)
		}
		if fs.PriorityCount < 0 {
			return nil, fmt.Errorf("core: snapshot priority count %v for function %q", fs.PriorityCount, name)
		}
		for i := 0; i < int(fs.PriorityCount); i++ {
			if err := p.global.Priority().Bump(fn); err != nil {
				return nil, err
			}
		}
	}
	p.active.sort()
	if restored != len(byName) {
		for name := range byName {
			if _, ok := p.reg.Slot(name); !ok {
				return nil, fmt.Errorf("core: snapshot has state for %q, which the configuration does not register", name)
			}
		}
	}
	d, err := restoreDetector(eff.KaMThreshold, eff.LocalWindow, eff.PriorMode, s.Detector)
	if err != nil {
		return nil, err
	}
	p.detector = d
	p.totalDowngrades = s.TotalDowngrades
	p.peakMinutes = s.PeakMinutes
	return p, nil
}

// resumeMinute returns the next minute the restored controller expects;
// exposed for the metastore's convenience API.
func (p *Pulse) resumeMinute() int { return p.detector.Elapsed() }

// ResumeMinute returns the minute index a restored controller should next
// be driven at (the number of minutes it has already recorded). Driving it
// at a later minute is safe — histories treat the gap as inactivity — but
// an earlier minute would run time backwards.
func (p *Pulse) ResumeMinute() int { return p.resumeMinute() }

var _ cluster.Policy = (*Pulse)(nil)

package loadgen

import (
	"fmt"
	"strings"
	"time"

	"github.com/gbooster/gbooster/internal/device"
	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/sim"
)

// ChurnKind is a mid-session lifecycle event a churn script injects
// into one session.
type ChurnKind string

const (
	// ChurnNone runs the session to completion undisturbed.
	ChurnNone ChurnKind = ""
	// ChurnCrash abruptly blackholes the session's link mid-run: the
	// client vanishes without closing anything and the fleet must
	// idle-reap its state.
	ChurnCrash ChurnKind = "crash"
	// ChurnHotJoin attaches a second fleet connection mid-run — PR 5's
	// elastic hot-join, with the session bootstrap handoff admitting the
	// newcomer.
	ChurnHotJoin ChurnKind = "hotjoin"
	// ChurnDrain hot-joins a second connection, then administratively
	// drains the first a few frames later: in-flight frames migrate to
	// the replica (PR 2's failover machinery) and the drained device is
	// later readmitted via bootstrap handoff.
	ChurnDrain ChurnKind = "drain"
)

// DeviceClass is one slice of the simulated player population: a
// catalog phone, the workloads that population runs, and its share.
type DeviceClass struct {
	// Name labels the class in reports ("nexus5", ...).
	Name string
	// Phone is the catalog device the class simulates.
	Phone device.UserDevice
	// Workloads are the catalog workload IDs this class plays, chosen
	// uniformly per session.
	Workloads []string
	// Weight is the class's relative population share.
	Weight float64
}

// DefaultCatalog is the heterogeneous player population, one class per
// paper phone with shares proportional to the Table-I GPU-capability
// ratios (3.6 : 4.8 : 6.7) — newer, more capable phones are the larger
// and hungrier slice, running the heavier games.
func DefaultCatalog() []DeviceClass {
	rows := device.TableI()
	return []DeviceClass{
		{Name: "nexus5", Phone: device.Nexus5(), Workloads: []string{"G5", "G6", "A2"}, Weight: rows[0].DevGPUGPps},
		{Name: "lgg4", Phone: device.LGG4(), Workloads: []string{"G3", "G6"}, Weight: rows[1].DevGPUGPps},
		{Name: "lgg5", Phone: device.LGG5(), Workloads: []string{"G2", "G5"}, Weight: rows[2].DevGPUGPps},
	}
}

// WeightedProfile is a link profile with a population share.
type WeightedProfile struct {
	Profile netsim.Profile
	Weight  float64
}

// Scenario is a complete load-test specification. Plan expands it into
// per-session plans, purely as a function of the scenario value (same
// Seed → identical plan), so every run of a scenario is replayable.
type Scenario struct {
	// Name labels the scenario in its SLO table.
	Name string
	// Sessions is how many players arrive over the window.
	Sessions int
	// ArrivalWindow is the span arrivals are spread over.
	ArrivalWindow time.Duration
	// FramesPerSession is each session's frame-loop length.
	FramesPerSession int
	// FrameInterval paces the frame loop (0 = as fast as possible).
	FrameInterval time.Duration
	// FrameTimeout bounds each StepFrame call.
	FrameTimeout time.Duration
	// Pattern shapes arrivals across the window.
	Pattern Pattern
	// Links is the per-session link-profile mix (empty = loopback).
	Links []WeightedProfile
	// Catalog is the device-class mix (empty = DefaultCatalog).
	Catalog []DeviceClass
	// Crash, Drain, HotJoin are the fractions of sessions scripted
	// with each churn kind (the rest run undisturbed).
	Crash, Drain, HotJoin float64
	// Seed roots every random choice the plan makes.
	Seed uint64
}

// SessionPlan is one session's script: who arrives, when, over what
// link, playing what, and what churn strikes it.
type SessionPlan struct {
	// ID is the session's index; Name its unique identity on the wire
	// (the hub port / source address).
	ID   int
	Name string
	// Start is the arrival offset from scenario begin.
	Start time.Duration
	// Class and Workload identify the simulated population slice.
	Class    string
	Workload string
	// Link is the session's emulated path; LinkName its profile name.
	Link     netsim.LinkConfig
	LinkName string
	// Frames is the session's frame budget; Seed its private stream.
	Frames int
	Seed   uint64
	// Churn is the scripted event (ChurnNone for most sessions) and
	// ChurnFrame the frame index it fires before.
	Churn      ChurnKind
	ChurnFrame int
}

// withDefaults fills the zero-value fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.Sessions <= 0 {
		sc.Sessions = 16
	}
	if sc.ArrivalWindow <= 0 {
		sc.ArrivalWindow = 10 * time.Second
	}
	if sc.FramesPerSession <= 0 {
		sc.FramesPerSession = 30
	}
	if sc.FrameTimeout <= 0 {
		sc.FrameTimeout = 10 * time.Second
	}
	if len(sc.Pattern.Buckets) == 0 {
		sc.Pattern = Steady()
	}
	if len(sc.Links) == 0 {
		sc.Links = []WeightedProfile{{Profile: netsim.Loopback, Weight: 1}}
	}
	if len(sc.Catalog) == 0 {
		sc.Catalog = DefaultCatalog()
	}
	return sc
}

// Plan expands the scenario into per-session plans, sorted by start
// time. It is pure in the scenario value: calling it twice yields
// identical plans, which is what makes scenario runs replayable.
func (sc Scenario) Plan() []SessionPlan {
	sc = sc.withDefaults()
	root := sim.NewRNG(sc.Seed)
	// Independent streams per concern, so e.g. adding a churn kind
	// cannot shift which workload session 7 plays.
	arrivalRNG := root.Fork()
	mixRNG := root.Fork()
	churnRNG := root.Fork()
	seedRNG := root.Fork()

	starts := sc.Pattern.Schedule(sc.Sessions, sc.ArrivalWindow, arrivalRNG)
	plans := make([]SessionPlan, sc.Sessions)
	for i := range plans {
		class := pickClass(sc.Catalog, mixRNG)
		link := pickProfile(sc.Links, mixRNG)
		p := SessionPlan{
			ID:       i,
			Name:     fmt.Sprintf("s%04d", i),
			Start:    starts[i],
			Class:    class.Name,
			Workload: class.Workloads[mixRNG.Intn(len(class.Workloads))],
			Link:     link.Link,
			LinkName: link.Name,
			Frames:   sc.FramesPerSession,
			Seed:     seedRNG.Uint64(),
		}
		// Churn script: at most one event per session, striking in the
		// middle third of its frame budget so there is streaming state
		// worth handing off (and frames left to observe the recovery).
		r := churnRNG.Float64()
		third := p.Frames / 3
		if third < 1 {
			third = 1
		}
		switch {
		case r < sc.Crash:
			p.Churn = ChurnCrash
		case r < sc.Crash+sc.Drain:
			p.Churn = ChurnDrain
		case r < sc.Crash+sc.Drain+sc.HotJoin:
			p.Churn = ChurnHotJoin
		}
		if p.Churn != ChurnNone {
			p.ChurnFrame = third + churnRNG.Intn(third)
		}
		plans[i] = p
	}
	return plans
}

// pickClass draws a device class by weight.
func pickClass(catalog []DeviceClass, rng *sim.RNG) DeviceClass {
	var total float64
	for _, c := range catalog {
		if c.Weight > 0 {
			total += c.Weight
		}
	}
	if total <= 0 {
		return catalog[rng.Intn(len(catalog))]
	}
	u := rng.Float64() * total
	for _, c := range catalog {
		if c.Weight <= 0 {
			continue
		}
		if u < c.Weight {
			return c
		}
		u -= c.Weight
	}
	return catalog[len(catalog)-1]
}

// pickProfile draws a link profile by weight.
func pickProfile(links []WeightedProfile, rng *sim.RNG) netsim.Profile {
	var total float64
	for _, l := range links {
		if l.Weight > 0 {
			total += l.Weight
		}
	}
	if total <= 0 {
		return links[rng.Intn(len(links))].Profile
	}
	u := rng.Float64() * total
	for _, l := range links {
		if l.Weight <= 0 {
			continue
		}
		if u < l.Weight {
			return l.Profile
		}
		u -= l.Weight
	}
	return links[len(links)-1].Profile
}

// Preset scenarios. Sizes are deliberately modest — these run on a
// developer machine in seconds; scale Sessions/Frames up via flags for
// real capacity studies.

// ProductionDay is the realistic mixed day: diurnal arrivals, the full
// device catalog, mostly-good links with a congested and a lossy tail,
// and light organic churn.
func ProductionDay() Scenario {
	return Scenario{
		Name:             "production-day",
		Sessions:         24,
		ArrivalWindow:    8 * time.Second,
		FramesPerSession: 30,
		Pattern:          DefaultDiurnal(),
		Links: []WeightedProfile{
			{Profile: netsim.WiFiGood, Weight: 6},
			{Profile: netsim.LTE, Weight: 3},
			{Profile: netsim.WiFiCongested, Weight: 1},
		},
		Crash:   0.05,
		HotJoin: 0.10,
		Seed:    1,
	}
}

// Burst is the spike preset: a steady floor with a mid-window surge
// that stresses admission and the GPU gate.
func Burst() Scenario {
	return Scenario{
		Name:             "spike",
		Sessions:         24,
		ArrivalWindow:    6 * time.Second,
		FramesPerSession: 24,
		Pattern:          Spike(),
		Links: []WeightedProfile{
			{Profile: netsim.WiFiGood, Weight: 3},
			{Profile: netsim.LTE, Weight: 1},
		},
		Seed: 2,
	}
}

// FlashCrowdScenario is the stampede: nearly everyone arrives in the
// opening moments, straight into the admission cap.
func FlashCrowdScenario() Scenario {
	return Scenario{
		Name:             "flash-crowd",
		Sessions:         32,
		ArrivalWindow:    5 * time.Second,
		FramesPerSession: 20,
		Pattern:          FlashCrowd(),
		Links: []WeightedProfile{
			{Profile: netsim.WiFiGood, Weight: 1},
		},
		Seed: 3,
	}
}

// Churn is the lifecycle torture test: steady arrivals where most
// sessions crash, drain, or hot-join mid-run, exercising idle-reap,
// failover migration, and bootstrap handoff under load.
func Churn() Scenario {
	return Scenario{
		Name:             "churn",
		Sessions:         16,
		ArrivalWindow:    5 * time.Second,
		FramesPerSession: 30,
		Pattern:          Steady(),
		Links: []WeightedProfile{
			{Profile: netsim.WiFiGood, Weight: 1},
		},
		Crash:   0.25,
		Drain:   0.25,
		HotJoin: 0.25,
		Seed:    4,
	}
}

// CongestedScenario is the bad-network preset: a handful of sessions,
// every one on congested WiFi, running long enough for the congestion
// feedback loop to bite. The catalog is pinned to the heaviest
// workload (G5): the point is saturating the constrained link, and the
// default mixed population's lighter workloads fit inside the congested
// budget without ever tripping the feedback. With adaptive quality
// enabled (-adaptive-quality) this is the preset that demonstrates the
// quality ladder: the SLO's quality_steps goes positive as sessions
// step down under sustained loss and delay.
func CongestedScenario() Scenario {
	return Scenario{
		Name:             "congested",
		Sessions:         3,
		ArrivalWindow:    500 * time.Millisecond,
		FramesPerSession: 80,
		Pattern:          Steady(),
		Links: []WeightedProfile{
			{Profile: netsim.WiFiCongested, Weight: 1},
		},
		Catalog: []DeviceClass{
			{Name: "nexus5", Phone: device.Nexus5(), Workloads: []string{"G5"}, Weight: 1},
		},
		Seed: 5,
	}
}

// ScenarioNames returns the preset names for flag help.
func ScenarioNames() []string {
	return []string{"production-day", "spike", "flash-crowd", "churn", "congested"}
}

// ScenarioByName returns the named preset (case-insensitive).
func ScenarioByName(name string) (Scenario, error) {
	switch strings.ToLower(name) {
	case "production-day":
		return ProductionDay(), nil
	case "spike", "burst":
		return Burst(), nil
	case "flash-crowd":
		return FlashCrowdScenario(), nil
	case "churn":
		return Churn(), nil
	case "congested":
		return CongestedScenario(), nil
	}
	return Scenario{}, fmt.Errorf("loadgen: unknown scenario %q (have %s)",
		name, strings.Join(ScenarioNames(), ", "))
}

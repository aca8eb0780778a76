package loadgen

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/sim"
)

// TestDigestQuantilesVsSort checks the log-bucketed digest against a
// reference nearest-rank sort on a mixed distribution: every queried
// quantile must land within the digest's relative error bound.
func TestDigestQuantilesVsSort(t *testing.T) {
	rng := sim.NewRNG(42)
	d := NewDigest()
	var ref []float64
	for i := 0; i < 20000; i++ {
		// Lognormal-ish latencies with a heavy tail, in ms.
		v := math.Exp(rng.Norm(2.5, 0.8))
		if rng.Bool(0.01) {
			v *= 20 // tail spikes
		}
		d.Add(v)
		ref = append(ref, v)
	}
	sort.Float64s(ref)
	refQ := func(q float64) float64 {
		rank := int(math.Ceil(q*float64(len(ref)))) - 1
		if rank < 0 {
			rank = 0
		}
		return ref[rank]
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		got, want := d.Quantile(q), refQ(q)
		if relErr := math.Abs(got-want) / want; relErr > 0.05 {
			t.Errorf("q%.3f: digest %.3f vs sort %.3f (rel err %.3f)", q, got, want, relErr)
		}
	}
	if d.Count() != int64(len(ref)) {
		t.Errorf("Count = %d, want %d", d.Count(), len(ref))
	}
	if got, want := d.Max(), ref[len(ref)-1]; got != want {
		t.Errorf("Max = %v, want exact %v", got, want)
	}
	if got, want := d.Min(), ref[0]; got != want {
		t.Errorf("Min = %v, want exact %v", got, want)
	}
	var sum float64
	for _, v := range ref {
		sum += v
	}
	if got, want := d.Mean(), sum/float64(len(ref)); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Mean = %v, want exact %v", got, want)
	}
}

// TestDigestMergeEqualsUnion checks split-and-merge agrees with one
// digest fed the whole stream — the property scenario aggregation
// rests on.
func TestDigestMergeEqualsUnion(t *testing.T) {
	rng := sim.NewRNG(7)
	whole, a, b := NewDigest(), NewDigest(), NewDigest()
	for i := 0; i < 5000; i++ {
		v := rng.Exp(30)
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.Count() != whole.Count() || a.Max() != whole.Max() || a.Min() != whole.Min() {
		t.Fatalf("merged count/max/min diverge: %d/%v/%v vs %d/%v/%v",
			a.Count(), a.Max(), a.Min(), whole.Count(), whole.Max(), whole.Min())
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q%.2f: merged %v != union %v", q, got, want)
		}
	}
	// Merging an empty digest must not disturb min tracking.
	empty := NewDigest()
	before := whole.Min()
	whole.Merge(empty)
	if whole.Min() != before {
		t.Errorf("merge(empty) changed Min: %v -> %v", before, whole.Min())
	}
}

// TestPatternScheduleShape checks arrival schedules: count, bounds,
// ordering, and that shaped patterns actually skew arrivals where the
// shape says.
func TestPatternScheduleShape(t *testing.T) {
	window := 10 * time.Second
	for _, name := range PatternNames() {
		p, err := PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		starts := p.Schedule(200, window, sim.NewRNG(5))
		if len(starts) != 200 {
			t.Fatalf("%s: %d starts", name, len(starts))
		}
		for i, s := range starts {
			if s < 0 || s >= window {
				t.Fatalf("%s: start[%d] = %v outside [0, %v)", name, i, s, window)
			}
			if i > 0 && s < starts[i-1] {
				t.Fatalf("%s: schedule not sorted at %d", name, i)
			}
		}
	}
	// Flash crowd: most arrivals in the first 1/12 of the window.
	starts := FlashCrowd().Schedule(200, window, sim.NewRNG(5))
	early := 0
	for _, s := range starts {
		if s < window/12 {
			early++
		}
	}
	if early < 120 {
		t.Errorf("flash-crowd: only %d/200 arrivals in the first slice", early)
	}
	// Steady: roughly half in each half.
	starts = Steady().Schedule(200, window, sim.NewRNG(5))
	firstHalf := 0
	for _, s := range starts {
		if s < window/2 {
			firstHalf++
		}
	}
	if firstHalf < 80 || firstHalf > 120 {
		t.Errorf("steady: %d/200 arrivals in the first half", firstHalf)
	}
}

// TestPlanDeterminism is the seeded-scenario smoke: the same scenario
// value must expand to the identical plan — arrivals, device mix,
// links, churn script — on every call.
func TestPlanDeterminism(t *testing.T) {
	for _, name := range ScenarioNames() {
		sc, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := sc.Plan(), sc.Plan()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two Plan() calls diverge", name)
		}
		sc2 := sc
		sc2.Seed++
		if reflect.DeepEqual(a, sc2.Plan()) {
			t.Errorf("%s: different seeds produced identical plans", name)
		}
	}
}

// TestPlanScript checks plan contents: unique names, frame budgets,
// churn fractions honored, and churn frames inside the run.
func TestPlanScript(t *testing.T) {
	sc := Churn()
	sc.Sessions = 200
	plans := sc.Plan()
	names := map[string]bool{}
	counts := map[ChurnKind]int{}
	for _, p := range plans {
		if names[p.Name] {
			t.Fatalf("duplicate session name %s", p.Name)
		}
		names[p.Name] = true
		if p.Frames != sc.FramesPerSession {
			t.Fatalf("%s: frames %d", p.Name, p.Frames)
		}
		if p.Workload == "" || p.Class == "" || p.LinkName == "" {
			t.Fatalf("%s: incomplete plan %+v", p.Name, p)
		}
		counts[p.Churn]++
		if p.Churn != ChurnNone && (p.ChurnFrame < p.Frames/3 || p.ChurnFrame >= p.Frames) {
			t.Fatalf("%s: churn frame %d outside middle window of %d", p.Name, p.ChurnFrame, p.Frames)
		}
	}
	// 25% each scripted; allow generous sampling slack at n=200.
	for _, k := range []ChurnKind{ChurnCrash, ChurnDrain, ChurnHotJoin} {
		if c := counts[k]; c < 25 || c > 75 {
			t.Errorf("churn %q count %d, want ~50", k, c)
		}
	}
	if counts[ChurnNone] < 25 {
		t.Errorf("undisturbed count %d, want ~50", counts[ChurnNone])
	}
}

// TestSummarize drives Summarize over synthetic results and checks the
// SLO and its table rendering.
func TestSummarize(t *testing.T) {
	mk := func(frames int, lat float64) Result {
		d := NewDigest()
		for i := 0; i < frames; i++ {
			d.Add(lat)
		}
		r := Result{Plan: SessionPlan{Class: "lgg5"}, Latency: d, FramesOK: frames}
		r.Snapshot.FramesShown = int64(frames)
		r.Snapshot.Elapsed = time.Second
		r.Snapshot.FramesSkipped = 2
		r.Snapshot.HandoffStats.Completed = 1
		return r
	}
	crashed := mk(3, 40)
	crashed.Crashed = true
	rejected := Result{Plan: SessionPlan{Class: "nexus5"}, Latency: NewDigest(), Rejected: true}
	slo := Summarize("unit", []Result{mk(10, 20), mk(10, 20), crashed, rejected})
	if slo.Sessions != 4 || slo.OK != 2 || slo.Crashed != 1 || slo.Rejected != 1 || slo.Failed != 0 {
		t.Fatalf("session accounting: %+v", slo)
	}
	if slo.Frames != 23 {
		t.Errorf("Frames = %d, want 23", slo.Frames)
	}
	if slo.GapSkips != 6 || slo.HandoffsOK != 3 {
		t.Errorf("gap_skips=%d handoffs=%d", slo.GapSkips, slo.HandoffsOK)
	}
	if slo.P50 < 19 || slo.P50 > 21 {
		t.Errorf("P50 = %v, want ~20", slo.P50)
	}
	if slo.PerClass["lgg5"] != 3 || slo.PerClass["nexus5"] != 1 {
		t.Errorf("PerClass = %v", slo.PerClass)
	}
	if tbl := slo.Table(); !strings.Contains(tbl, "scenario unit") {
		t.Errorf("table: %s", tbl)
	}
}

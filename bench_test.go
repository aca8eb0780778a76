// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark reports the experiment's headline numbers
// as custom metrics (so `go test -bench` output doubles as the results
// table) while timing how long the reproduction takes. Run:
//
//	go test -bench=. -benchmem
package gbooster_test

import (
	"testing"

	"github.com/gbooster/gbooster/internal/experiments"
)

// BenchmarkTableI regenerates Table I (game requirements vs phone
// capabilities).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.TableI(); out == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1 regenerates the GPU thermal-throttling trace.
func BenchmarkFig1(b *testing.B) {
	var minMHz float64
	for i := 0; i < b.N; i++ {
		trace, _, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		minMHz = 1e9
		for _, p := range trace {
			if p.MHz < minMHz {
				minMHz = p.MHz
			}
		}
	}
	b.ReportMetric(minMHz, "minMHz")
}

// BenchmarkFig5Nexus5 regenerates the acceleration study on the
// old-generation phone (Fig. 5a-c).
func BenchmarkFig5Nexus5(b *testing.B) {
	var g1Local, g1Off float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig5("nexus5", experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ID == "G1" {
				g1Local, g1Off = r.LocalFPS, r.OffloadFPS
			}
		}
	}
	b.ReportMetric(g1Local, "G1-local-fps")
	b.ReportMetric(g1Off, "G1-offload-fps")
}

// BenchmarkFig5LGG5 regenerates the study on the new-generation phone
// (Fig. 5d-e).
func BenchmarkFig5LGG5(b *testing.B) {
	var g1Local, g1Off float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig5("lgg5", experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ID == "G1" {
				g1Local, g1Off = r.LocalFPS, r.OffloadFPS
			}
		}
	}
	b.ReportMetric(g1Local, "G1-local-fps")
	b.ReportMetric(g1Off, "G1-offload-fps")
}

// BenchmarkFig6 regenerates the normalized-energy study.
func BenchmarkFig6(b *testing.B) {
	var g2Norm, g2Always float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig6(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Phone == "nexus5" && r.ID == "G2" {
				g2Norm, g2Always = r.NormSwitching, r.NormAlwaysWiFi
			}
		}
	}
	b.ReportMetric(g2Norm*100, "G2-norm-%")
	b.ReportMetric(g2Always*100, "G2-alwayswifi-%")
}

// BenchmarkFig7 regenerates the multi-device scaling study.
func BenchmarkFig7(b *testing.B) {
	var one, three float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig7(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		one, three = rows[1].MedianFPS, rows[3].MedianFPS
	}
	b.ReportMetric(one, "fps-1dev")
	b.ReportMetric(three, "fps-3dev")
}

// BenchmarkTableIII regenerates the non-gaming application study.
func BenchmarkTableIII(b *testing.B) {
	var worstNorm float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.TableIII(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		worstNorm = 0
		for _, r := range rows {
			if n := r.OffloadEnergyJ / r.LocalEnergyJ; n > worstNorm {
				worstNorm = n
			}
		}
	}
	b.ReportMetric(worstNorm*100, "worst-norm-%")
}

// BenchmarkTraffic measures the §V-A redundancy-elimination pipeline on
// the real data plane.
func BenchmarkTraffic(b *testing.B) {
	var res experiments.TrafficResult
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = experiments.Traffic("G1", 25, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CacheHitRate*100, "cache-hit-%")
	b.ReportMetric(res.TurboMPps, "turbo-MP/s")
	b.ReportMetric(res.VideoMPps, "video-MP/s")
}

// BenchmarkForecast runs the §V-B ARMA-vs-ARMAX prediction study.
func BenchmarkForecast(b *testing.B) {
	var res experiments.ForecastResult
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = experiments.Forecast(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ARMA.FNRate()*100, "ARMA-FN-%")
	b.ReportMetric(res.ARMAX.FNRate()*100, "ARMAX-FN-%")
}

// BenchmarkCloud runs the §VII-F comparison against the cloud baseline.
func BenchmarkCloud(b *testing.B) {
	var cloudMs float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.CloudComparison(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		cloudMs = float64(rows[0].CloudResp.Milliseconds())
	}
	b.ReportMetric(cloudMs, "cloud-resp-ms")
}

// BenchmarkOverhead measures §VII-G memory and CPU overhead.
func BenchmarkOverhead(b *testing.B) {
	var res experiments.OverheadResult
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = experiments.Overhead(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MemoryMB, "wrapper-MB")
	b.ReportMetric(res.OffloadCPU*100, "offload-cpu-%")
}

// BenchmarkAblations runs the design-choice ablations (cache/LZ4
// stages, turbo quality, switching policy, buffer depth).
func BenchmarkAblations(b *testing.B) {
	var res experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = experiments.Ablations(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.UplinkNone/1024, "uplink-raw-KB")
	b.ReportMetric(res.UplinkBoth/1024, "uplink-opt-KB")
}

// BenchmarkMultiUser runs the §VIII FCFS-vs-priority study: chess
// frames rendered while a shooter waits at a shared GPU gate.
func BenchmarkMultiUser(b *testing.B) {
	var res experiments.MultiUserResult
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = experiments.MultiUser(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FCFSServedFirst), "fcfs-frames-waited")
	b.ReportMetric(float64(res.PriorityServedFirst), "prio-frames-waited")
}

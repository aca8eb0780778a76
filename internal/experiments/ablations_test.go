package experiments

import "testing"

func TestAblationsShape(t *testing.T) {
	res, out, err := Ablations(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("no rendering")
	}
	// Each optimization stage must pay its way on the uplink.
	if res.UplinkBoth >= res.UplinkNone {
		t.Fatalf("full pipeline %.0f >= unoptimized %.0f", res.UplinkBoth, res.UplinkNone)
	}
	if res.UplinkLZ4Only >= res.UplinkNone || res.UplinkLRUOnly >= res.UplinkNone {
		t.Fatal("individual stages did not reduce the uplink")
	}
	// Quality sweep: bytes and PSNR both rise with quality.
	for i := 1; i < len(res.QualitySweep); i++ {
		prev, cur := res.QualitySweep[i-1], res.QualitySweep[i]
		if cur.BytesPer <= prev.BytesPer {
			t.Fatalf("q=%d bytes %.0f <= q=%d bytes %.0f", cur.Quality, cur.BytesPer, prev.Quality, prev.BytesPer)
		}
		if cur.PSNR <= prev.PSNR {
			t.Fatalf("q=%d PSNR %.1f <= q=%d PSNR %.1f", cur.Quality, cur.PSNR, prev.Quality, prev.PSNR)
		}
	}
	// Policies: always-wifi costs the most energy.
	byName := map[string]PolicyPoint{}
	for _, p := range res.Policies {
		byName[p.Policy] = p
	}
	if byName["always-wifi"].EnergyJ <= byName["predictive"].EnergyJ {
		t.Fatal("always-wifi not more expensive than predictive")
	}
	// In-flight depth: B=1 (blocking SwapBuffer) clearly slower; B>=2 plateaus.
	if res.InFlight[0].MedianFPS >= res.InFlight[1].MedianFPS {
		t.Fatalf("B=1 FPS %.1f >= B=2 FPS %.1f", res.InFlight[0].MedianFPS, res.InFlight[1].MedianFPS)
	}
	if res.InFlight[3].MedianFPS > res.InFlight[2].MedianFPS*1.05 {
		t.Fatal("B=4 should not beat B=3 (three devices)")
	}
}

func TestMultiUserExperiment(t *testing.T) {
	res, out, err := MultiUser(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("no rendering")
	}
	// FCFS: the shooter waits one frame per competing chess session
	// (the frame already rendering, then the 7 queued ahead of it; 7 if
	// it slipped in before the leaver re-queued). Priority: at most the
	// frame already rendering — the GPU is non-preemptive.
	if res.FCFSServedFirst < 7 {
		t.Fatalf("FCFS rendered %d chess frames while the shooter waited, want >= 7", res.FCFSServedFirst)
	}
	if res.PriorityServedFirst > 1 {
		t.Fatalf("priority rendered %d chess frames while the shooter waited, want <= 1", res.PriorityServedFirst)
	}
}

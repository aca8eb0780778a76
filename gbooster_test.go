package gbooster

import (
	"bytes"
	"errors"
	"image"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/netsim"
)

func TestWorkloadCatalog(t *testing.T) {
	ws := Workloads()
	if len(ws) != 9 {
		t.Fatalf("Workloads() = %d entries, want 6 games + 3 apps", len(ws))
	}
	ids := map[string]bool{}
	for _, w := range ws {
		ids[w.ID] = true
		if w.Name == "" || w.Genre == "" {
			t.Errorf("workload %q missing metadata", w.ID)
		}
	}
	for _, want := range []string{"G1", "G6", "A3"} {
		if !ids[want] {
			t.Errorf("catalog missing %s", want)
		}
	}
	if len(Phones()) != 3 || len(ServiceDevices()) != 4 {
		t.Fatal("device catalogs wrong size")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := SimulateLocal(Options{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("empty options error = %v", err)
	}
	if _, err := SimulateLocal(Options{Workload: "G9"}); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("bad workload error = %v", err)
	}
	if _, err := SimulateLocal(Options{Workload: "G1", Phone: "iphone"}); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("bad phone error = %v", err)
	}
	if _, err := SimulateOffload(Options{Workload: "G1"}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("offload without services error = %v", err)
	}
	if _, err := SimulateOffload(Options{Workload: "G1", Services: []string{"ps5"}}); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("bad service error = %v", err)
	}
}

func TestSimulateHeadlineResult(t *testing.T) {
	// The paper's headline: offloading boosts action-game frame rates
	// dramatically and cuts energy.
	opts := Options{Workload: "G1", Phone: "nexus5", Duration: 5 * time.Minute, Seed: 1}
	local, err := SimulateLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Services = []string{"shield"}
	off, err := SimulateOffload(opts)
	if err != nil {
		t.Fatal(err)
	}
	if off.MedianFPS < local.MedianFPS*1.5 {
		t.Fatalf("boost %.1f -> %.1f too small", local.MedianFPS, off.MedianFPS)
	}
	if off.EnergyJoules >= local.EnergyJoules {
		t.Fatalf("no energy saving: %.0fJ -> %.0fJ", local.EnergyJoules, off.EnergyJoules)
	}
	if off.AvgPowerW <= 0 || off.CPUUtil <= 0 {
		t.Fatalf("metrics not populated: %+v", off)
	}
}

func TestSimulateAblations(t *testing.T) {
	base := Options{Workload: "G1", Phone: "nexus5", Services: []string{"shield", "optiplex", "optiplex"},
		Duration: 3 * time.Minute, Seed: 2}
	normal, err := SimulateOffload(base)
	if err != nil {
		t.Fatal(err)
	}
	blocking := base
	blocking.BlockingSwapBuffer = true
	blocked, err := SimulateOffload(blocking)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.MedianFPS >= normal.MedianFPS {
		t.Fatalf("blocking swap %.1f >= pipelined %.1f", blocked.MedianFPS, normal.MedianFPS)
	}
	noSwitch := base
	noSwitch.Services = []string{"shield"}
	noSwitch.DisableSwitching = true
	on, err := SimulateOffload(noSwitch)
	if err != nil {
		t.Fatal(err)
	}
	withSwitch := noSwitch
	withSwitch.DisableSwitching = false
	off, err := SimulateOffload(withSwitch)
	if err != nil {
		t.Fatal(err)
	}
	if on.EnergyJoules <= off.EnergyJoules {
		t.Fatalf("always-wifi energy %.0fJ <= switched %.0fJ", on.EnergyJoules, off.EnergyJoules)
	}
}

func TestPlayerOverInMemoryLink(t *testing.T) {
	const w, h = 64, 48
	player, err := NewPlayer(PlayerConfig{Workload: "G6", Width: w, Height: h, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	srv, err := NewStreamServer(StreamServerConfig{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	pcS, pcC := netsim.NewPair(netsim.LinkConfig{Loss: 0.02}, 9)
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(pcS, pcC.Addr()) }()
	if err := player.ConnectConn("mem", pcC, pcS.Addr(), 1000); err != nil {
		t.Fatal(err)
	}

	// StepFrame hands out the client's per-frame pixel copy itself, so a
	// returned image must stay the caller's: the next frame may neither
	// share its backing array nor change it.
	var last *image.RGBA
	var lastPix []byte
	for f := 0; f < 5; f++ {
		img, err := player.StepFrame(5 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if img.Bounds().Dx() != w || img.Bounds().Dy() != h || img.Stride != 4*w || len(img.Pix) != w*h*4 {
			t.Fatalf("frame bounds %v stride %d len %d", img.Bounds(), img.Stride, len(img.Pix))
		}
		if last != nil {
			if &last.Pix[0] == &img.Pix[0] {
				t.Fatalf("frame %d shares its pixel array with frame %d", f, f-1)
			}
			if !bytes.Equal(last.Pix, lastPix) {
				t.Fatalf("frame %d changed after frame %d was returned", f-1, f)
			}
		}
		last, lastPix = img, append([]byte(nil), img.Pix...)
	}
	st := player.Snapshot().PlayerStats
	if st.FramesSent != 5 || st.FramesShown != 5 {
		t.Fatalf("frames sent=%d shown=%d", st.FramesSent, st.FramesShown)
	}
	if st.WireBytes >= st.RawBytes {
		t.Fatalf("no traffic reduction: raw=%d wire=%d", st.RawBytes, st.WireBytes)
	}
	_ = player.Close()
	_ = srv.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not exit after Close")
	}
}

func TestPlayerValidation(t *testing.T) {
	if _, err := NewPlayer(PlayerConfig{Workload: "nope", Width: 32, Height: 32, Seed: 1}); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("bad workload error = %v", err)
	}
	if _, err := NewStreamServer(StreamServerConfig{}); err == nil {
		t.Fatal("zero-size server accepted")
	}
}

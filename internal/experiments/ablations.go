package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/core"
	"github.com/gbooster/gbooster/internal/device"
	"github.com/gbooster/gbooster/internal/dispatch"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/ifswitch"
	"github.com/gbooster/gbooster/internal/lz4"
	"github.com/gbooster/gbooster/internal/pipeline"
	"github.com/gbooster/gbooster/internal/turbo"
	"github.com/gbooster/gbooster/internal/workload"
)

// AblationResult collects the design-choice ablations DESIGN.md calls
// out: each row isolates one mechanism the paper introduces and
// measures the system with it removed or varied.
type AblationResult struct {
	// Uplink bytes per frame with each optimization stage toggled.
	UplinkNone    float64
	UplinkLZ4Only float64
	UplinkLRUOnly float64
	UplinkBoth    float64

	// Turbo quality sweep: bytes/frame and PSNR at three qualities.
	QualitySweep []QualityPoint

	// Switching-policy sweep for G1: offload energy and overload
	// windows per policy.
	Policies []PolicyPoint

	// In-flight buffer sweep (B = 1..4) for 3 service devices.
	InFlight []InFlightPoint
}

// QualityPoint is one turbo-quality sample.
type QualityPoint struct {
	Quality  int
	BytesPer float64
	PSNR     float64
}

// PolicyPoint is one switching-policy sample.
type PolicyPoint struct {
	Policy    string
	EnergyJ   float64
	Overloads int
}

// InFlightPoint is one buffer-depth sample.
type InFlightPoint struct {
	B         int
	MedianFPS float64
}

// Ablations runs every ablation and renders the summary.
func Ablations(seed uint64) (AblationResult, string, error) {
	var res AblationResult

	// --- Uplink pipeline stages (real data plane) ---
	prof, err := workload.ByID("G1")
	if err != nil {
		return res, "", err
	}
	const frames = 25
	type variant struct {
		useLRU, useLZ4 bool
		total          int64
	}
	variants := []*variant{
		{false, false, 0},
		{false, true, 0},
		{true, false, 0},
		{true, true, 0},
	}
	for _, v := range variants {
		game := workload.NewGame(prof, seed)
		enc := glwire.NewEncoder(game.Arrays())
		cache := cmdcache.New(0)
		for f := 0; f < frames; f++ {
			buf, err := enc.EncodeAll(nil, game.NextFrame().Commands)
			if err != nil {
				return res, "", err
			}
			out := buf
			if v.useLRU {
				recs, err := glwire.SplitRecords(buf)
				if err != nil {
					return res, "", err
				}
				out, _, err = cache.EncodeAll(nil, recs)
				if err != nil {
					return res, "", err
				}
			}
			if v.useLZ4 {
				out = lz4.Compress(nil, out)
			}
			v.total += int64(len(out))
		}
	}
	res.UplinkNone = float64(variants[0].total) / frames
	res.UplinkLZ4Only = float64(variants[1].total) / frames
	res.UplinkLRUOnly = float64(variants[2].total) / frames
	res.UplinkBoth = float64(variants[3].total) / frames

	// --- Turbo quality sweep (real frames) ---
	for _, q := range []int{30, 60, 90} {
		game := workload.NewGame(prof, seed)
		wenc := glwire.NewEncoder(game.Arrays())
		gpu := gles.NewGPU(workload.StreamW, workload.StreamH)
		tEnc := turbo.NewEncoder(workload.StreamW, workload.StreamH, q)
		tDec := turbo.NewDecoder(workload.StreamW, workload.StreamH, q)
		var dec glwire.Decoder
		var bytesTotal int64
		var worstPSNR = 1e18
		for f := 0; f < 10; f++ {
			buf, err := wenc.EncodeAll(nil, game.NextFrame().Commands)
			if err != nil {
				return res, "", err
			}
			cmds, err := dec.DecodeAll(buf)
			if err != nil {
				return res, "", err
			}
			if _, err := gpu.ExecuteAll(cmds); err != nil {
				return res, "", err
			}
			pkt, err := tEnc.Encode(gpu.FB.Pix, false)
			if err != nil {
				return res, "", err
			}
			bytesTotal += int64(len(pkt))
			got, err := tDec.Decode(pkt)
			if err != nil {
				return res, "", err
			}
			if p := turbo.PSNR(gpu.FB.Pix, got); p < worstPSNR {
				worstPSNR = p
			}
		}
		res.QualitySweep = append(res.QualitySweep, QualityPoint{
			Quality: q, BytesPer: float64(bytesTotal) / 10, PSNR: worstPSNR,
		})
	}

	// --- Switching-policy sweep ---
	for _, pol := range []ifswitch.Policy{ifswitch.PolicyPredictive, ifswitch.PolicyReactive, ifswitch.PolicyAlwaysWiFi} {
		cfg := pipeline.Config{
			Profile:   prof,
			User:      device.Nexus5(),
			Services:  []device.ServiceDevice{device.NvidiaShield()},
			Duration:  3 * time.Minute,
			Seed:      seed,
			Switching: pol,
		}
		r, err := pipeline.RunOffload(cfg)
		if err != nil {
			return res, "", err
		}
		res.Policies = append(res.Policies, PolicyPoint{
			Policy: pol.String(), EnergyJ: r.Energy.TotalJoules(), Overloads: r.Overloads,
		})
	}

	// --- In-flight buffer depth ---
	for b := 1; b <= 4; b++ {
		cfg := pipeline.Config{
			Profile: prof,
			User:    device.Nexus5(),
			Services: []device.ServiceDevice{
				device.NvidiaShield(), device.OptiplexGTX750(), device.OptiplexGTX750(),
			},
			Duration: 3 * time.Minute,
			Seed:     seed,
			InFlight: b,
		}
		r, err := pipeline.RunOffload(cfg)
		if err != nil {
			return res, "", err
		}
		res.InFlight = append(res.InFlight, InFlightPoint{B: b, MedianFPS: r.MedianFPS})
	}

	var sb strings.Builder
	sb.WriteString("Ablations: each of GBooster's mechanisms, removed or varied\n")
	fmt.Fprintf(&sb, "  uplink KB/frame: none %.1f | LZ4 only %.1f | LRU only %.1f | LRU+LZ4 %.1f\n",
		res.UplinkNone/1024, res.UplinkLZ4Only/1024, res.UplinkLRUOnly/1024, res.UplinkBoth/1024)
	sb.WriteString("  turbo quality sweep (bytes/frame, worst PSNR):\n")
	for _, q := range res.QualitySweep {
		fmt.Fprintf(&sb, "    q=%-3d %8.1f KB  %6.1f dB\n", q.Quality, q.BytesPer/1024, q.PSNR)
	}
	sb.WriteString("  switching policy (G1, 3 min): energy / overload windows:\n")
	for _, p := range res.Policies {
		fmt.Fprintf(&sb, "    %-11s %8.0f J  %4d overloads\n", p.Policy, p.EnergyJ, p.Overloads)
	}
	sb.WriteString("  in-flight request buffer B (3 devices):\n")
	for _, p := range res.InFlight {
		fmt.Fprintf(&sb, "    B=%d  %6.1f FPS\n", p.B, p.MedianFPS)
	}
	return res, sb.String(), nil
}

// MultiUserResult is the §VIII future-work study: FCFS vs priority
// admission at a shared service device's GPU.
type MultiUserResult struct {
	// FCFSServedFirst and PriorityServedFirst count the background
	// (chess) frames the GPU rendered while one time-critical (shooter)
	// request waited for it, per admission policy.
	FCFSServedFirst     int64
	PriorityServedFirst int64
}

// The §VIII scene: multiUserChess background sessions share one GPU
// with a shooter, each bringing multiUserBacklog frames — several times
// the rounds of the gate the shooter can wait through.
const (
	multiUserChess   = 8
	multiUserBacklog = 16
)

// MultiUser measures how many chess frames a shared GPU renders while a
// fast-paced shooter's request waits, under FCFS admission (every
// priority equal) and under priority admission (the shooter ahead).
func MultiUser(seed uint64) (MultiUserResult, string, error) {
	fcfs, err := sharedGPUWait(seed, 0)
	if err != nil {
		return MultiUserResult{}, "", err
	}
	prio, err := sharedGPUWait(seed, 10)
	if err != nil {
		return MultiUserResult{}, "", err
	}
	res := MultiUserResult{FCFSServedFirst: fcfs, PriorityServedFirst: prio}
	var b strings.Builder
	b.WriteString("Multiple users on one service device (§VIII future work, implemented)\n")
	fmt.Fprintf(&b, "  %d chess sessions + 1 shooter, one goroutine each, through one width-1 GPU gate\n", multiUserChess)
	fmt.Fprintf(&b, "  chess frames rendered while the shooter's request waited: FCFS %d, priority %d\n", fcfs, prio)
	b.WriteString("  FCFS makes the shooter wait one frame per competing session; priority only for the frame already rendering.\n")
	return res, b.String(), nil
}

// sharedGPUWait runs the fleet's per-session shape — one core.Server
// and one goroutine per session doing Enter → Handle → Leave per
// message, as fleet.Manager.runSession does — through one width-1
// dispatch.Gate: one GPU, non-preemptive (§VI-A). Once every chess
// session but the one rendering is queued, the shooter enters at
// shooterPriority; the result is the chess frames rendered between its
// Enter and its admission, the frame already rendering included.
func sharedGPUWait(seed uint64, shooterPriority int) (int64, error) {
	const shooter = multiUserChess // session index; chess are 0..7
	var backlogs [multiUserChess + 1][][]byte
	for i := range backlogs {
		id, n := "G4", multiUserBacklog
		if i == shooter {
			id, n = "G2", 1
		}
		var err error
		if backlogs[i], err = buildBatches(id, seed+uint64(i), n); err != nil {
			return 0, err
		}
	}
	gate := dispatch.NewGate(1)
	stop := make(chan struct{})
	var (
		mu    sync.Mutex
		order []int // session indices, in the order the gate admitted them
		busy  bool  // the last one admitted is still rendering
		// leaving is held across every gate.Leave. Holding it freezes
		// admissions, so the shooter's arrival can be timed exactly.
		leaving sync.Mutex
	)
	serve := func(id, priority int) error {
		srv, err := core.NewServer(core.ServerConfig{Width: 96, Height: 64})
		if err != nil {
			return err
		}
		for _, msg := range backlogs[id] {
			select {
			case <-stop:
				return nil
			default:
			}
			if !gate.Enter(stop, priority) {
				return nil
			}
			mu.Lock()
			order, busy = append(order, id), true
			mu.Unlock()
			_, err := srv.Handle(msg)
			mu.Lock()
			busy = false
			mu.Unlock()
			leaving.Lock()
			gate.Leave()
			leaving.Unlock()
			if err != nil {
				return err
			}
		}
		return nil
	}
	errs := make(chan error, multiUserChess)
	for id := range multiUserChess {
		go func() { errs <- serve(id, 0) }()
	}
	// Until every chess session but the one rendering is queued, or one
	// of them has stopped and the queue can never fill.
	for gate.Stats().Queued < multiUserChess-1 && len(errs) == 0 {
		runtime.Gosched()
	}
	// With admissions frozen the gate's queue changes only by the
	// shooter joining it, so what is read here is exactly what the
	// shooter finds when it arrives: read it, let the shooter enter,
	// and thaw once it is queued (or admitted, or failed).
	leaving.Lock()
	mu.Lock()
	mark, rendering := len(order), busy
	mu.Unlock()
	queued := gate.Stats().Queued
	shot := make(chan error, 1)
	go func() { shot <- serve(shooter, shooterPriority) }()
	for arrived := false; !arrived; {
		mu.Lock()
		arrived = len(order) > mark
		mu.Unlock()
		arrived = arrived || gate.Stats().Queued > queued || len(shot) > 0
		runtime.Gosched()
	}
	leaving.Unlock()
	err := <-shot
	close(stop)
	for range multiUserChess {
		if e := <-errs; err == nil {
			err = e
		}
	}
	if err != nil {
		return 0, err
	}
	waited := int64(slices.Index(order[mark:], shooter))
	if rendering {
		waited++
	}
	return waited, nil
}

// buildBatches serializes n frames of a workload into frame-batch
// messages through a fresh client-side cache.
func buildBatches(id string, seed uint64, n int) ([][]byte, error) {
	prof, err := workload.ByID(id)
	if err != nil {
		return nil, err
	}
	game := workload.NewGame(prof, seed)
	enc := glwire.NewEncoder(game.Arrays())
	cache := cmdcache.New(0)
	msgs := make([][]byte, 0, n)
	for f := 0; f < n; f++ {
		buf, err := enc.EncodeAll(nil, game.NextFrame().Commands)
		if err != nil {
			return nil, err
		}
		recs, err := glwire.SplitRecords(buf)
		if err != nil {
			return nil, err
		}
		wire, _, err := cache.EncodeAll(nil, recs)
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, core.FrameBatchMsg(uint64(f), lz4.Compress(nil, wire)))
	}
	return msgs, nil
}

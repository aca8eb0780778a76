package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"image"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	gbooster "github.com/gbooster/gbooster"
	"github.com/gbooster/gbooster/internal/batchio"
	"github.com/gbooster/gbooster/internal/sim"
)

// metricDef names one metric. Bound is the share of the baseline median
// by which an end-to-end metric may worsen before it is a regression;
// Floor is an absolute allowance on top, for a metric small enough that
// a share of it is below the clock's noise.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Floor  float64
}

// endToEnd is what a player or a fleet operator feels. BENCHMARK.json
// carries the same names, units and bounds. The tenth end-to-end number,
// failed_frame_share, is printed on every run and reported to the driver
// as failed/attempted: it is 0 on a healthy tree, and the driver takes
// no metric that can be 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "frame_ms_p50", Unit: "ms", Better: "lower", Bound: 0.09},
	{Name: "frame_ms_p99", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "frames_per_s", Unit: "1/s", Better: "higher", Bound: 0.09},
	{Name: "cpu_ms_per_frame", Unit: "ms", Better: "lower", Bound: 0.09},
	{Name: "uplink_bytes_per_frame", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "downlink_bytes_per_frame", Unit: "B", Better: "lower", Bound: 0.1},
	{Name: "psnr_db_min", Unit: "dB", Better: "higher", Bound: 0.1},
	{Name: "rss_mb_peak", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer is one layer's work, busy time or waste, named after the
// module it is measured in. No bounds: these explain a change, they do
// not gate it.
var perLayer = []metricDef{
	{Name: "gles.execute_us", Unit: "us", Better: "lower"},
	{Name: "gles.fragments_per_frame", Unit: "count", Better: "lower"},
	{Name: "gles.mfrag_per_s", Unit: "Mfrag/s", Better: "higher"},
	{Name: "turbo.encode_us", Unit: "us", Better: "lower"},
	{Name: "turbo.decode_us", Unit: "us", Better: "lower"},
	{Name: "turbo.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "turbo.changed_tile_share", Unit: "ratio", Better: "lower"},
	{Name: "turbo.bytes_per_frame", Unit: "B", Better: "lower"},
	{Name: "rudp.uplink_msg_us", Unit: "us", Better: "lower"},
	{Name: "rudp.downlink_msg_us", Unit: "us", Better: "lower"},
	{Name: "rudp.datagrams_per_frame", Unit: "count", Better: "lower"},
	{Name: "rudp.resend_share", Unit: "ratio", Better: "lower"},
	{Name: "rudp.srtt_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.egress_datagrams_per_syscall", Unit: "count", Better: "higher"},
	{Name: "fleet.egress_drop_share", Unit: "ratio", Better: "lower"},
	{Name: "fleet.gate_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "fleet.sessions_peak", Unit: "count", Better: "higher"},
	{Name: "fleet.rss_mb_per_session", Unit: "MB", Better: "lower"},
	{Name: "batchio.send_ns_per_datagram", Unit: "ns", Better: "lower"},
	{Name: "batchio.fastpath", Unit: "count", Better: "higher"},
	{Name: "core.server_handle_us", Unit: "us", Better: "lower"},
	{Name: "core.server_self_us", Unit: "us", Better: "lower"},
	{Name: "core.frame_unattributed_us", Unit: "us", Better: "lower"},
	{Name: "runtime.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_frame", Unit: "KB", Better: "lower"},
	{Name: "runtime.gc_cycles_per_kframe", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "glwire.encode_us", Unit: "us", Better: "lower"},
	{Name: "glwire.decode_us", Unit: "us", Better: "lower"},
	{Name: "glwire.raw_bytes_per_frame", Unit: "B", Better: "lower"},
	{Name: "cmdcache.encode_us", Unit: "us", Better: "lower"},
	{Name: "cmdcache.decode_us", Unit: "us", Better: "lower"},
	{Name: "cmdcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cmdcache.out_bytes_per_frame", Unit: "B", Better: "lower"},
	{Name: "lz4.compress_us", Unit: "us", Better: "lower"},
	{Name: "lz4.decompress_us", Unit: "us", Better: "lower"},
	{Name: "lz4.ratio", Unit: "ratio", Better: "higher"},
	{Name: "hook.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "workload.next_frame_us", Unit: "us", Better: "lower"},
	{Name: "workload.commands_per_frame", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// median of vals (mean of the middle two for an even count); 0 if empty.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of vals; 0 if empty.
func percentile(vals []float64, q float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is everything read at a phase boundary. All fields are
// cumulative except srtt and sessionsPeak, which are gauges.
type counters struct {
	cpu                    time.Duration // process user+sys
	mallocs, allocBytes    uint64
	gcCycles, gcPauseNS    uint64
	up, down               int64         // Snapshot().WireBytes / DownlinkBytes, all sessions
	dataSent, dataResent   int64         // rudp data datagrams, both directions where visible
	srtt                   time.Duration // mean client-side SRTT
	egressDatagrams        int64
	egressSyscalls         int64
	egressDrops            int64
	gateEntries, gateWaits int64
	sessionsPeak           int64
}

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

func (r *rig) counters() counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = tvDuration(ru.Utime) + tvDuration(ru.Stime)
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.mallocs, c.allocBytes = mem.Mallocs, mem.TotalAlloc
	c.gcCycles, c.gcPauseNS = uint64(mem.NumGC), mem.PauseTotalNs
	var srtt time.Duration
	for _, p := range r.players {
		s := p.Snapshot()
		c.up += s.WireBytes
		c.down += s.DownlinkBytes
		for _, t := range s.Transports {
			c.dataSent += t.DataSent
			c.dataResent += t.DataResent
			srtt += t.SRTT
		}
	}
	c.srtt = srtt / time.Duration(len(r.players))
	if r.srv != nil {
		if st, ok := r.srv.TransportStats(); ok {
			c.dataSent += st.DataSent
			c.dataResent += st.DataResent
		}
	}
	if r.fleet != nil {
		f := r.fleet.Snapshot().FleetStats
		c.egressDatagrams, c.egressSyscalls, c.egressDrops = f.EgressDatagrams, f.EgressSyscalls, f.EgressDrops
		c.gateEntries, c.gateWaits, c.sessionsPeak = f.GateEntries, f.GateWaits, f.PeakSessions
	}
	return c
}

// addSpan adds what happened between two readings to c (gauges take the
// later reading).
func (c *counters) addSpan(before, after counters) {
	c.cpu += after.cpu - before.cpu
	c.mallocs += after.mallocs - before.mallocs
	c.allocBytes += after.allocBytes - before.allocBytes
	c.gcCycles += after.gcCycles - before.gcCycles
	c.gcPauseNS += after.gcPauseNS - before.gcPauseNS
	c.up += after.up - before.up
	c.down += after.down - before.down
	c.dataSent += after.dataSent - before.dataSent
	c.dataResent += after.dataResent - before.dataResent
	c.egressDatagrams += after.egressDatagrams - before.egressDatagrams
	c.egressSyscalls += after.egressSyscalls - before.egressSyscalls
	c.egressDrops += after.egressDrops - before.egressDrops
	c.gateEntries += after.gateEntries - before.gateEntries
	c.gateWaits += after.gateWaits - before.gateWaits
	c.srtt, c.sessionsPeak = after.srtt, after.sessionsPeak
}

// vmHWM is the process's peak resident set in MB (0 where /proc is
// missing).
func vmHWM() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// warmHost keeps every CPU busy for a moment before anything is timed.
// This host needs about a second of sustained load to reach full clock
// speed (frames are ~50% slower until then, whatever the program does),
// and a run must not depend on how idle the machine was before it.
func warmHost() {
	stop := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for time.Now().Before(stop) {
				for i := 0; i < 1<<16; i++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			runtime.KeepAlive(x)
		}()
	}
	wg.Wait()
}

type runOpts struct {
	w       workload
	seed    uint64
	seconds float64 // 0: the workload's fixed frame counts
	trace   bool
	outDir  string
}

// report is one run of one workload.
type report struct {
	Workload  string
	Seed      uint64
	Trace     bool
	Correct   bool
	Attempted int64
	Displayed int64
	Failed    int64
	EndToEnd  map[string]float64
	PerLayer  map[string]float64
	Checks    []string
	Problems  []string
}

// segmentSeeds derives n independent seeds from the run's seed, so two
// runs with neighbouring seeds share no session.
func segmentSeeds(seed uint64, n int) []uint64 {
	rng := sim.NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// run measures one workload in this process:
//
//  1. the timed phase, tracing off, in w.Setups segments. Each segment
//     sets the workload up afresh with its own seed (setup_s is the
//     median over segments) and steps it for its share of the time or
//     frames. Together they give every end-to-end metric but
//     psnr_db_min, and the runtime.* / fleet.* / rudp counter deltas.
//     Several seeds per run is what keeps a run's numbers from hanging
//     on one game's sprite layout;
//  2. a fresh set-up of the first segment's seed stepped again with one
//     frame span and one Snapshot per frame, keeping a hash of what was
//     displayed;
//  3. the stage replay of the same frames, which times every layer,
//     checks the displayed frames and yields psnr_db_min.
//
// An untraced run gives 1 the whole time and checks a short fixed
// prefix in 2 and 3. A traced run has one segment with a third of the
// frames (a quarter of the time) and traces all of them.
func run(o runOpts) (*report, error) {
	w := o.w
	rep := &report{Workload: w.Name, Seed: o.seed, Trace: o.trace, EndToEnd: make(map[string]float64), PerLayer: make(map[string]float64)}
	tr := newTracer()

	segments, frames, budget := w.Setups, w.Frames, o.seconds
	if o.trace {
		segments, frames, budget = 1, (frames+2)/3, budget/4
	}
	seeds := segmentSeeds(o.seed, segments)
	var setups []float64
	var timed phase
	var delta counters
	for _, seed := range seeds {
		r, d, err := setUp(w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		rounds, deadline := (frames+segments-1)/segments, time.Time{}
		if budget > 0 {
			rounds, deadline = 0, time.Now().Add(time.Duration(budget/float64(segments)*float64(time.Second)))
		}
		before := r.counters()
		ph := r.step(1, rounds, deadline, nil)
		delta.addSpan(before, r.counters())
		r.close()
		runtime.GC() // or this rig's garbage would still be resident at the next one's peak
		timed.latencyMS = append(timed.latencyMS, ph.latencyMS...)
		timed.displayed += ph.displayed
		timed.failed += ph.failed
		timed.wall += ph.wall
		timed.errs = append(timed.errs, ph.errs...)
		timed.rounds = ph.rounds
	}
	rss := vmHWM()
	if timed.displayed == 0 {
		return nil, fmt.Errorf("no frame displayed in the timed phase: %v", timed.errs)
	}

	rep.Attempted = timed.displayed + timed.failed
	rep.Displayed = timed.displayed
	rep.Failed = timed.failed
	for _, e := range timed.errs {
		rep.Checks = append(rep.Checks, "timed frame failed: "+e)
	}
	shown := float64(timed.displayed)
	e := rep.EndToEnd
	e["setup_s"] = median(setups)
	e["frame_ms_p50"] = median(timed.latencyMS)
	e["frame_ms_p99"] = percentile(timed.latencyMS, 0.99)
	e["frames_per_s"] = shown / timed.wall.Seconds()
	e["cpu_ms_per_frame"] = float64(delta.cpu) / 1e6 / shown
	e["uplink_bytes_per_frame"] = float64(delta.up) / shown
	e["downlink_bytes_per_frame"] = float64(delta.down) / shown
	e["rss_mb_peak"] = rss

	verifyFrames := w.VerifyFrames
	if o.trace {
		verifyFrames = timed.rounds
	}
	if verifyFrames < 1 {
		return nil, fmt.Errorf("no session survived the timed phase: %v", timed.errs)
	}
	var replayBudget time.Duration
	if o.trace && o.seconds > 0 {
		replayBudget = time.Duration(o.seconds / 2 * float64(time.Second))
	}
	counts, err := verify(rep, tr, w, seeds[0], verifyFrames, replayBudget)
	if err != nil {
		return nil, err
	}
	e["psnr_db_min"] = counts.psnrMin

	if err := layerMetrics(rep.PerLayer, tr, w, counts, delta, shown, rss, e["frame_ms_p50"]); err != nil {
		return nil, err
	}

	rep.Correct = len(rep.Problems) == 0
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if o.trace {
		path := filepath.Join(o.outDir, "trace-"+w.Name+".jsonl")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.Checks = append(rep.Checks, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	}
	return rep, appendRecord(filepath.Join(o.outDir, "results.jsonl"), o, rep, segments, counts.frames)
}

// layerMetrics fills l with every per-layer metric: stage timings as
// medians per frame over the replay's spans, work counts per replayed
// frame, and counter deltas over the untraced timed phase (delta, over
// shown displayed frames).
func layerMetrics(l map[string]float64, tr *tracer, w workload, counts replayCounts, delta counters, shown, rss, untracedP50MS float64) error {
	rf := float64(counts.frames)
	for _, st := range []string{"gles.execute", "turbo.encode", "turbo.decode", "rudp.uplink_msg", "rudp.downlink_msg",
		"core.server_handle", "glwire.encode", "glwire.decode", "cmdcache.encode", "cmdcache.decode",
		"lz4.compress", "lz4.decompress", "hook.dispatch", "workload.next_frame"} {
		l[st+"_us"] = tr.medianUS(st)
	}
	l["gles.fragments_per_frame"] = ratio(float64(counts.fragments), rf)
	l["gles.mfrag_per_s"] = ratio(l["gles.fragments_per_frame"], l["gles.execute_us"])
	l["turbo.encode_mb_per_s"] = ratio(float64(w.Width*w.Height*4), l["turbo.encode_us"])
	l["turbo.changed_tile_share"] = ratio(float64(counts.tilesSent), float64(counts.tilesTotal))
	l["turbo.bytes_per_frame"] = ratio(float64(counts.turboBytes), rf)
	l["rudp.datagrams_per_frame"] = ratio(float64(counts.datagrams), rf)
	l["rudp.resend_share"] = ratio(float64(delta.dataResent), float64(delta.dataSent))
	l["rudp.srtt_ms"] = float64(delta.srtt) / 1e6
	if w.Link == "" {
		l["fleet.egress_datagrams_per_syscall"] = ratio(float64(delta.egressDatagrams), float64(delta.egressSyscalls))
		l["fleet.egress_drop_share"] = ratio(float64(delta.egressDrops), float64(delta.egressDatagrams))
		l["fleet.gate_wait_share"] = ratio(float64(delta.gateWaits), float64(delta.gateEntries))
		l["fleet.sessions_peak"] = float64(delta.sessionsPeak)
		l["fleet.rss_mb_per_session"] = rss / float64(w.Sessions)
		ns, fast, err := batchSendCost(tr)
		if err != nil {
			return err
		}
		l["batchio.send_ns_per_datagram"] = ns
		if fast {
			l["batchio.fastpath"] = 1
		}
	}
	handle := tr.durUS["core.server_handle"]
	self := make([]float64, len(handle))
	for i := range handle {
		self[i] = handle[i]
		for _, child := range []string{"lz4.decompress", "cmdcache.decode", "glwire.decode", "gles.execute", "turbo.encode"} {
			self[i] -= tr.durUS[child][i]
		}
	}
	l["core.server_self_us"] = median(self)
	attributed := 0.0
	for _, st := range []string{"core.server_handle", "rudp.uplink_msg", "rudp.downlink_msg", "turbo.decode",
		"workload.next_frame", "hook.dispatch", "glwire.encode", "cmdcache.encode", "lz4.compress"} {
		attributed += l[st+"_us"]
	}
	tracedP50 := tr.medianUS("frame")
	l["core.frame_unattributed_us"] = tracedP50 - attributed
	l["runtime.allocs_per_frame"] = float64(delta.mallocs) / shown
	l["runtime.alloc_kb_per_frame"] = float64(delta.allocBytes) / 1024 / shown
	l["runtime.gc_cycles_per_kframe"] = float64(delta.gcCycles) / shown * 1000
	l["runtime.gc_pause_ms_total"] = float64(delta.gcPauseNS) / 1e6
	l["glwire.raw_bytes_per_frame"] = ratio(float64(counts.rawBytes), rf)
	l["cmdcache.hit_ratio"] = ratio(float64(counts.cacheHits), float64(counts.records))
	l["cmdcache.out_bytes_per_frame"] = ratio(float64(counts.cacheBytes), rf)
	l["lz4.ratio"] = ratio(float64(counts.cacheBytes), float64(counts.lz4Bytes))
	l["workload.commands_per_frame"] = ratio(float64(counts.commands), rf)
	l["trace.overhead_share"] = ratio(tracedP50/1e3, untracedP50MS) - 1
	return nil
}

// verify is phases 2 and 3 of run: trace a fresh live set-up of the
// same seed, replay the tracked sessions stage by stage, and check what
// was displayed against the replay. Failed checks land in rep.Problems.
func verify(rep *report, tr *tracer, w workload, seed uint64, frames int, budget time.Duration) (replayCounts, error) {
	lf, live, err := traceLive(tr, w, seed, frames)
	if err != nil {
		return replayCounts{}, err
	}
	for _, e := range live.errs {
		rep.Problems = append(rep.Problems, "traced frame failed: "+e)
	}
	total, err := replayTracked(tr, w, seed, frames, budget, lf)
	if err != nil {
		return total, err
	}
	rep.Checks = append(rep.Checks,
		fmt.Sprintf("displayed frames byte-identical to the stage replay's decoder output: %d/%d (of %d traced)",
			total.frames-total.mismatched, total.frames, len(lf.sessions)*frames),
		fmt.Sprintf("split server stages reproduce Server.Handle's packet: %d/%d", total.frames-total.forked, total.frames),
		fmt.Sprintf("psnr_db_min %.2f dB against local rendering (floor %.0f dB)", total.psnrMin, failFloorPSNR))
	if total.firstProblem != "" {
		rep.Problems = append(rep.Problems, total.firstProblem)
	}
	if total.psnrMin < failFloorPSNR {
		rep.Problems = append(rep.Problems, fmt.Sprintf("psnr_db_min %.2f dB is below the %.0f dB floor", total.psnrMin, failFloorPSNR))
	}
	return total, nil
}

// traceLive sets the workload up and steps it for frames frames per
// session with tracing on: one frame span per StepFrame carrying that
// frame's Snapshot counter deltas, and, for the tracked sessions (the
// first of each catalog ID), a hash of what was displayed.
func traceLive(tr *tracer, w workload, seed uint64, frames int) (*liveFrames, phase, error) {
	tracked := make([]int, 0, len(w.Games))
	for s := 0; s < len(w.Games) && s < w.Sessions; s++ {
		tracked = append(tracked, s)
	}
	lf := newLiveFrames(tracked, frames)
	r, _, err := setUp(w, seed)
	if err != nil {
		return nil, phase{}, err
	}
	defer runtime.GC()
	defer r.close()
	prev := make([]gbooster.PlayerSnapshot, len(r.players))
	for s, p := range r.players {
		prev[s] = p.Snapshot()
	}
	live := r.step(1, frames, time.Time{}, func(s, f int, start, end time.Time, img *image.RGBA) {
		snap := r.players[s].Snapshot()
		sp := span{Name: "frame", Session: s, Frame: f,
			UpBytes: snap.WireBytes - prev[s].WireBytes, DownBytes: snap.DownlinkBytes - prev[s].DownlinkBytes}
		for i, t := range snap.Transports {
			sp.Resent += t.DataResent - prev[s].Transports[i].DataResent
		}
		prev[s] = snap
		id := tr.add(sp, start, end.Sub(start))
		if hs, ok := lf.hashes[s]; ok {
			hs[f] = maphash.Bytes(lf.seed, img.Pix)
			lf.ids[s][f] = id
		}
	})
	return lf, live, nil
}

// replayTracked runs the stage replay of every tracked session over the
// frames traceLive displayed. budget > 0 bounds its time, shared evenly
// between the sessions; frames past it go unchecked and uncounted.
func replayTracked(tr *tracer, w workload, seed uint64, frames int, budget time.Duration, lf *liveFrames) (replayCounts, error) {
	total := replayCounts{psnrMin: psnrCap}
	for _, s := range lf.sessions {
		rp, err := newStageReplay(tr, &total, s, w.Games[s%len(w.Games)], seed+uint64(s), w.Width, w.Height)
		if err != nil {
			return total, err
		}
		stop := time.Now().Add(budget / time.Duration(len(lf.sessions)))
		for f := 0; f <= frames && (budget <= 0 || time.Now().Before(stop)); f++ {
			if err := rp.frame(f, lf); err != nil {
				rp.close()
				return total, fmt.Errorf("stage replay: session %d frame %d: %w", s, f, err)
			}
		}
		rp.close()
	}
	if total.frames == 0 {
		return total, fmt.Errorf("stage replay checked no frame")
	}
	return total, nil
}

// batchSendCost times batchio.Sender.Send on the path the fleet's
// egress writer uses: batches of 64 datagrams of 1200 B between two UDP
// sockets on 127.0.0.1. It returns the median ns per datagram.
func batchSendCost(tr *tracer) (nsPerDatagram float64, fastPath bool, err error) {
	const batchSize, payload, batches = 64, 1200, 200
	src, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, false, err
	}
	defer src.Close()
	dst, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, false, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 2048)
		for {
			if _, _, err := dst.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	defer func() {
		_ = dst.Close()
		<-drained
	}()
	sender := batchio.NewSender(src)
	batch := make([]batchio.Datagram, batchSize)
	for i := range batch {
		batch[i] = batchio.Datagram{Buf: make([]byte, payload), Addr: dst.LocalAddr()}
	}
	var per []float64
	for i := 0; i < batches; i++ {
		start := time.Now()
		n, err := sender.Send(batch)
		d := time.Since(start)
		if err != nil || n != batchSize {
			return 0, false, fmt.Errorf("batchio send: %d of %d sent: %v", n, batchSize, err)
		}
		tr.add(span{Name: "batchio.send", Frame: i}, start, d)
		per = append(per, float64(d)/batchSize)
	}
	return median(per), sender.FastPath(), nil
}

// appendRecord adds one line to the results ledger: the run's metrics
// with everything needed to tell two lines apart.
func appendRecord(path string, o runOpts, rep *report, segments, replayedFrames int) error {
	rec := map[string]any{
		"date":             time.Now().UTC().Format(time.RFC3339),
		"commit":           commit(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"cpu":              cpuModel(),
		"go":               runtime.Version(),
		"workload":         rep.Workload,
		"seed":             o.seed,
		"seconds":          o.seconds,
		"trace":            o.trace,
		"sessions":         o.w.Sessions,
		"segments":         segments,
		"frames_attempted": rep.Attempted,
		"frames_displayed": rep.Displayed,
		"frames_failed":    rep.Failed,
		"replayed_frames":  replayedFrames,
		"correct":          rep.Correct,
		"end_to_end":       rep.EndToEnd,
		"per_layer":        rep.PerLayer,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// commit is the checked-out revision, or "unknown" outside a git tree
// (the driver's checkout is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

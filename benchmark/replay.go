package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"os"
	"sync"
	"time"

	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/core"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/hook"
	"github.com/gbooster/gbooster/internal/lz4"
	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
	"github.com/gbooster/gbooster/internal/turbo"
	wl "github.com/gbooster/gbooster/internal/workload"
)

// span is one timed interval. Spans of one frame share (Session,
// Frame); Parent is the ID of the span that caused this one (0 for a
// root). Times are nanoseconds since the run's epoch.
//
// The three per-record server stages (cmdcache.decode, glwire.decode,
// gles.execute) interleave record by record inside the server, so each
// is written as one span per frame whose length is the stage's summed
// busy time, starting where its first call started.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
	Frame   int    `json:"frame"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Counter deltas over a live frame span (Player.Snapshot).
	UpBytes   int64 `json:"up_bytes,omitempty"`
	DownBytes int64 `json:"down_bytes,omitempty"`
	Resent    int64 `json:"resent,omitempty"`
}

// tracer keeps spans in memory until the run ends, and the per-frame
// durations by span name that the per-layer medians are taken over.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	durUS map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), durUS: make(map[string][]float64)}
}

// add records a span and returns its ID.
func (t *tracer) add(s span, start time.Time, d time.Duration) int {
	s.StartNS = int64(start.Sub(t.epoch))
	s.EndNS = s.StartNS + int64(d)
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.durUS[s.Name] = append(t.durUS[s.Name], float64(d)/1e3)
	t.mu.Unlock()
	return s.ID
}

// medianUS is the median per-frame duration of the named span, in µs.
func (t *tracer) medianUS(name string) float64 { return median(t.durUS[name]) }

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// liveFrames is what the traced live phase leaves for the replay to
// check against: per tracked session, the hash of every displayed frame
// and the ID of its frame span.
type liveFrames struct {
	seed     maphash.Seed
	sessions []int            // the tracked sessions
	hashes   map[int][]uint64 // session -> frame index -> hash (index 0 unused)
	ids      map[int][]int
}

func newLiveFrames(sessions []int, frames int) *liveFrames {
	lf := &liveFrames{seed: maphash.MakeSeed(), sessions: sessions, hashes: make(map[int][]uint64), ids: make(map[int][]int)}
	for _, s := range sessions {
		lf.hashes[s] = make([]uint64, frames+1)
		lf.ids[s] = make([]int, frames+1)
	}
	return lf
}

// replayCounts are the work counts and check results the stage replays
// of one run accumulate over their timed frames.
type replayCounts struct {
	frames       int
	commands     int64
	records      int64
	cacheHits    int64
	rawBytes     int64 // glwire records
	cacheBytes   int64 // after cmdcache
	lz4Bytes     int64 // after lz4
	turboBytes   int64
	fragments    int64
	tilesSent    int64
	tilesTotal   int64
	datagrams    int64
	mismatched   int // displayed frames that differ from the replay's decoder output
	forked       int // frames where the split server stages and Server.Handle disagreed
	psnrMin      float64
	firstProblem string
}

// psnrCap stands in for +Inf (a frame the codec reproduced exactly) so
// the minimum stays a finite number.
const psnrCap = 100.0

// stageReplay pushes one session's seeded command stream, serially,
// through fresh instances of every layer via their public functions,
// timing each call as a child span of the live frame with the same
// (session, frame). The server half runs twice per frame: once whole,
// through core.Server.Handle, and once split into its five stages on
// separate instances, whose spans are Handle's children; the two must
// produce the same packet. Frame 0 (set-up) is replayed untimed.
type stageReplay struct {
	session int
	tr      *tracer

	game   *wl.Game
	linker *hook.Linker
	calls  map[string]hook.GLFunc
	sunk   []gles.Command // what the hooked calls delivered this frame

	enc     *glwire.Encoder
	encBuf  []byte
	recs    [][]byte
	ccache  *cmdcache.Cache
	wire    []byte
	comp    *lz4.Compressor
	payload []byte

	hub          *netsim.Hub
	cconn, sconn *rudp.Conn

	srv *core.Server

	decomp *lz4.Decompressor
	rawBuf []byte
	scache *cmdcache.Cache
	wdec   glwire.Decoder
	gpu    *gles.GPU
	tenc   *turbo.Encoder

	tdec *turbo.Decoder

	counts *replayCounts // shared by the replays of one run
}

func newStageReplay(tr *tracer, counts *replayCounts, session int, game string, seed uint64, w, h int) (*stageReplay, error) {
	prof, err := wl.ByID(game)
	if err != nil {
		return nil, err
	}
	r := &stageReplay{
		session: session, tr: tr, counts: counts,
		game:   wl.NewGame(prof, seed),
		linker: hook.NewLinker(),
		calls:  make(map[string]hook.GLFunc),
		ccache: cmdcache.New(0),
		comp:   lz4.NewCompressor(),
		decomp: lz4.NewDecompressor(),
		scache: cmdcache.New(0),
		gpu:    gles.NewGPU(w, h),
		tenc:   turbo.NewEncoder(w, h, turbo.DefaultQuality),
		tdec:   turbo.NewDecoder(w, h, turbo.DefaultQuality),
	}
	r.enc = glwire.NewEncoder(r.game.Arrays())
	r.gpu.SetParallelism(1)
	r.tenc.SetParallelism(1)
	r.tdec.SetParallelism(1)
	if _, err := hook.InstallWrapper(r.linker, "libgbooster.so", func(c gles.Command) { r.sunk = append(r.sunk, c) }); err != nil {
		return nil, err
	}
	if r.srv, err = core.NewServer(core.ServerConfig{Width: w, Height: h, Parallelism: 1}); err != nil {
		return nil, err
	}
	r.hub = netsim.NewHub("replay-server")
	port, err := r.hub.Attach("replay-player", netsim.Loopback.Link, seed)
	if err != nil {
		return nil, err
	}
	r.cconn = rudp.New(port, r.hub.Addr(), rudp.DefaultOptions())
	r.sconn = rudp.New(r.hub, port.Addr(), rudp.DefaultOptions())
	return r, nil
}

func (r *stageReplay) close() {
	_ = r.cconn.Close()
	_ = r.sconn.Close()
	_ = r.hub.Close()
}

// msgPayload strips core's message framing (type byte, uvarint seq).
func msgPayload(msg []byte) ([]byte, error) {
	if len(msg) < 2 {
		return nil, fmt.Errorf("short message (%d bytes)", len(msg))
	}
	_, n := binary.Uvarint(msg[1:])
	if n <= 0 {
		return nil, fmt.Errorf("bad message seq")
	}
	return msg[1+n:], nil
}

const replayRecvTimeout = 5 * time.Second

// frame replays frame idx and checks it against what the live session
// displayed. The set-up frame (idx 0) leaves no spans and no counts.
func (r *stageReplay) frame(idx int, lf *liveFrames) error {
	timed := idx > 0
	parent, want := lf.ids[r.session][idx], lf.hashes[r.session][idx]
	c := r.counts
	if !timed {
		c = new(replayCounts) // the set-up frame is counted nowhere
	}
	stage := func(name string, within int, start time.Time, d time.Duration) int {
		if !timed {
			return 0
		}
		return r.tr.add(span{Name: name, Parent: within, Session: r.session, Frame: idx}, start, d)
	}

	t0 := time.Now()
	f := r.game.NextFrame()
	t1 := time.Now()
	stage("workload.next_frame", parent, t0, t1.Sub(t0))

	r.sunk = r.sunk[:0]
	for _, cmd := range f.Commands {
		name := cmd.Op.String()
		fn, ok := r.calls[name]
		if !ok {
			resolved, err := hook.ResolveGL(r.linker, hook.LinkDirect, name)
			if err != nil {
				return err
			}
			fn = resolved
			r.calls[name] = fn
		}
		fn(cmd)
	}
	t2 := time.Now()
	stage("hook.dispatch", parent, t1, t2.Sub(t1))
	c.commands += int64(len(r.sunk))

	var err error
	if r.encBuf, err = r.enc.EncodeAll(r.encBuf[:0], r.sunk); err != nil {
		return err
	}
	if r.recs, err = glwire.AppendSplitRecords(r.recs[:0], r.encBuf); err != nil {
		return err
	}
	t3 := time.Now()
	stage("glwire.encode", parent, t2, t3.Sub(t2))
	c.records += int64(len(r.recs))
	c.rawBytes += int64(len(r.encBuf))

	var hits int
	if r.wire, hits, err = r.ccache.EncodeAll(r.wire[:0], r.recs); err != nil {
		return err
	}
	t4 := time.Now()
	stage("cmdcache.encode", parent, t3, t4.Sub(t3))
	c.cacheHits += int64(hits)
	c.cacheBytes += int64(len(r.wire))

	r.payload = r.comp.Compress(r.payload[:0], r.wire)
	t5 := time.Now()
	stage("lz4.compress", parent, t4, t5.Sub(t4))
	c.lz4Bytes += int64(len(r.payload))
	msg := core.FrameBatchMsg(uint64(idx), r.payload)

	sent0 := r.cconn.Stats().DataSent + r.sconn.Stats().DataSent
	t6 := time.Now()
	if err := r.cconn.Send(msg); err != nil {
		return err
	}
	got, err := r.sconn.Recv(replayRecvTimeout)
	if err != nil {
		return fmt.Errorf("uplink recv: %w", err)
	}
	t7 := time.Now()
	stage("rudp.uplink_msg", parent, t6, t7.Sub(t6))

	reply, err := r.srv.Handle(got)
	if err != nil {
		return err
	}
	t8 := time.Now()
	handle := stage("core.server_handle", parent, t7, t8.Sub(t7))
	replyPkt, err := msgPayload(reply)
	if err != nil {
		return err
	}

	// The same message through the server's five stages, one by one.
	batch, err := msgPayload(got)
	if err != nil {
		return err
	}
	t9 := time.Now()
	raw, err := r.decomp.Decompress(r.rawBuf[:0], batch, lz4.MaxBlockSize)
	r.rawBuf = raw
	if err != nil {
		return err
	}
	t10 := time.Now()
	stage("lz4.decompress", handle, t9, t10.Sub(t9))
	var dCache, dWire, dExec time.Duration
	frags0 := r.gpu.FragmentsShaded
	mark := t10
	for len(raw) > 0 {
		rec, n, err := r.scache.DecodeRecord(raw)
		if err != nil {
			return err
		}
		raw = raw[n:]
		a := time.Now()
		cmd, _, err := r.wdec.DecodeNoCopy(rec)
		if err != nil {
			return err
		}
		b := time.Now()
		_, _ = r.gpu.Execute(cmd) // GL errors are diagnostics; the server counts and continues too
		e := time.Now()
		dCache += a.Sub(mark)
		dWire += b.Sub(a)
		dExec += e.Sub(b)
		mark = e
	}
	stage("cmdcache.decode", handle, t10, dCache)
	stage("glwire.decode", handle, t10, dWire)
	stage("gles.execute", handle, t10, dExec)
	c.fragments += r.gpu.FragmentsShaded - frags0
	tiles0, total0 := r.tenc.Stats.TilesSent, r.tenc.Stats.TilesTotal
	t11 := time.Now()
	pkt, err := r.tenc.Encode(r.gpu.FB.Pix, false)
	if err != nil {
		return err
	}
	t12 := time.Now()
	stage("turbo.encode", handle, t11, t12.Sub(t11))
	c.tilesSent += int64(r.tenc.Stats.TilesSent - tiles0)
	c.tilesTotal += int64(r.tenc.Stats.TilesTotal - total0)
	c.turboBytes += int64(len(pkt))
	if !bytes.Equal(pkt, replyPkt) {
		c.forked++
		c.problem(fmt.Sprintf("session %d frame %d: split server stages produced a different packet than Server.Handle", r.session, idx))
	}
	r.sconn.Release(got)

	t13 := time.Now()
	if err := r.sconn.Send(reply); err != nil {
		return err
	}
	back, err := r.cconn.Recv(replayRecvTimeout)
	if err != nil {
		return fmt.Errorf("downlink recv: %w", err)
	}
	t14 := time.Now()
	stage("rudp.downlink_msg", parent, t13, t14.Sub(t13))
	c.datagrams += r.cconn.Stats().DataSent + r.sconn.Stats().DataSent - sent0

	encoded, err := msgPayload(back)
	if err != nil {
		return err
	}
	t15 := time.Now()
	pixels, err := r.tdec.Decode(encoded)
	if err != nil {
		return err
	}
	t16 := time.Now()
	stage("turbo.decode", parent, t15, t16.Sub(t15))
	r.cconn.Release(back)

	if !timed {
		return nil
	}
	// Output checks: the live session must have displayed exactly these
	// pixels, and they must be close to what a local GPU renders.
	if maphash.Bytes(lf.seed, pixels) != want {
		c.mismatched++
		c.problem(fmt.Sprintf("session %d frame %d: displayed frame differs from the replay's decoder output", r.session, idx))
	}
	psnr := turbo.PSNR(pixels, r.gpu.FB.Pix)
	if math.IsInf(psnr, 1) || psnr > psnrCap {
		psnr = psnrCap
	}

	c.frames++
	if psnr < c.psnrMin {
		c.psnrMin = psnr
	}
	return nil
}

// problem keeps the first failed check's description.
func (c *replayCounts) problem(msg string) {
	if c.firstProblem == "" {
		c.firstProblem = msg
	}
}

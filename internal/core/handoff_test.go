package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/dispatch"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
	"github.com/gbooster/gbooster/internal/workload"
)

// waitHandoffs polls the client until n handoffs have completed.
func waitHandoffs(t *testing.T, c *Client, n int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := c.Stats()
		if st.HandoffsFailed > 0 {
			t.Fatalf("handoff failed: %+v", st)
		}
		if st.HandoffsCompleted >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("handoff did not complete within %v: %+v", timeout, c.Stats())
}

// addServer attaches one more in-memory server to a live rig client,
// exactly as newRig does for the initial set.
func addServer(t *testing.T, r *rig, name string, seed uint64) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{Width: testW, Height: testH})
	if err != nil {
		t.Fatal(err)
	}
	opts := rudp.DefaultOptions()
	opts.RTO = 10 * time.Millisecond
	pcS, pcC := netsim.NewPair(netsim.LinkConfig{}, seed)
	connC := rudp.New(pcC, pcS.Addr(), opts)
	connS := rudp.New(pcS, pcC.Addr(), opts)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = srv.ServeWithTimeout(connS, 500*time.Millisecond)
		_ = connS.Close()
	}()
	if err := r.client.AddService(name, connC, 1000, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.servers = append(r.servers, srv)
	return srv
}

// TestHotJoinRestoresByteIdenticalState is the checkpoint round-trip
// property test: a server hot-joined mid-session via a bootstrap
// stream must reach the exact state a device that saw the full history
// holds — same state fingerprint, same StateSnapshot — and the next
// frame it renders must be byte-identical to a full-history local
// rendering of the same command stream.
func TestHotJoinRestoresByteIdenticalState(t *testing.T) {
	p, err := workload.ByID("G5")
	if err != nil {
		t.Fatal(err)
	}
	gameRemote := workload.NewGame(p, 17)
	gameLocal := workload.NewGame(p, 17)
	r := newRig(t, 1, &glwireArrays{game: gameRemote}, 0)
	sink := r.client.Sink()

	// Full-history reference: one persistent encoder, like the client's.
	localGPU := gles.NewGPU(testW, testH)
	localEnc := newFrameEncoder(gameLocal)
	renderLocal := func() {
		t.Helper()
		cmds, err := localEnc.encodeAll(gameLocal.NextFrame().Commands)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range cmds {
			if _, err := localGPU.Execute(cmd); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := func(f int) {
		t.Helper()
		for _, cmd := range gameRemote.NextFrame().Commands {
			sink(cmd)
		}
		renderLocal()
		if err := r.client.Err(); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if _, err := r.client.NextFrame(5 * time.Second); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}

	const warmFrames = 10
	for f := 0; f < warmFrames; f++ {
		step(f)
	}

	// Hot-join a cold server mid-session. AddService must hold it out
	// of the rotation until the bootstrap handoff is acked.
	joined := addServer(t, r, "server-hotjoin", 555)
	waitHandoffs(t, r.client, 1, 5*time.Second)
	if got := joined.Stats().Bootstraps; got != 1 {
		t.Fatalf("joined server restored %d bootstraps, want 1", got)
	}

	// Byte-identical restored state, before it renders anything.
	wantFP := gles.StateFingerprint(localGPU.Ctx)
	if got := gles.StateFingerprint(joined.gpu.Ctx); got != wantFP {
		t.Fatalf("restored state fingerprint %#x, want %#x", got, wantFP)
	}
	if got, want := joined.Snapshot(), localGPU.Ctx.Snapshot(); got != want {
		t.Fatalf("restored snapshot diverged:\n got=%+v\nwant=%+v", got, want)
	}

	// Route everything to the joined server and check its next frames
	// pixel-for-pixel against the full-history rendering.
	if err := r.client.DrainService("server-A"); err != nil {
		t.Fatal(err)
	}
	for f := warmFrames; f < warmFrames+3; f++ {
		step(f)
		if !bytes.Equal(joined.gpu.FB.Pix, localGPU.FB.Pix) {
			t.Fatalf("frame %d: restored server's framebuffer diverged from full history", f)
		}
	}
	if got := gles.StateFingerprint(joined.gpu.Ctx); got != gles.StateFingerprint(localGPU.Ctx) {
		t.Fatal("restored server's state diverged after follow-up frames")
	}
	st := r.client.Stats()
	if st.FramesSkipped != 0 || st.HandoffsFailed != 0 {
		t.Fatalf("hot-join dropped frames or failed handoffs: %+v", st)
	}
	if st.BootstrapsSent != 1 || st.BootstrapBytes <= 0 {
		t.Fatalf("bootstrap accounting: %+v", st)
	}
}

// TestHandoffAdmissionRequiresFingerprintMatch gates the dispatch
// readmission on the server's ack: a mismatched or zero fingerprint
// must re-evict the device, a matching one admits it on probation.
func TestHandoffAdmissionRequiresFingerprintMatch(t *testing.T) {
	client, err := NewClient(ClientConfig{Width: testW, Height: testH})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	pcS, pcC := netsim.NewPair(netsim.LinkConfig{}, 7)
	defer func() { _ = pcS.Close() }()
	conn := rudp.New(pcC, pcS.Addr(), rudp.DefaultOptions())
	if err := client.AddService("dev", conn, 1000, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	ackPayload := func(fp uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], fp)
		return b[:]
	}
	arm := func(fp uint64) *service {
		client.mu.Lock()
		defer client.mu.Unlock()
		svc := client.services[0]
		client.sched.MarkJoining(svc.dev)
		svc.handoffLive = true
		svc.handoffSending = false
		svc.handoffFP = fp
		svc.handoffSentAt = time.Now()
		svc.handoffEpoch++
		return svc
	}

	svc := arm(42)
	client.handleBootstrapAck(svc, ackPayload(43))
	if st := client.Stats(); st.HandoffsFailed != 1 || st.HandoffsCompleted != 0 {
		t.Fatalf("mismatched ack admitted the device: %+v", st)
	}
	if h := svc.dev.Health(); h != dispatch.Evicted {
		t.Fatalf("device %v after mismatched ack, want evicted", h)
	}

	// A zero fingerprint marks a failed restore server-side.
	client.mu.Lock()
	client.sched.ProbeAfter = 0
	client.mu.Unlock()
	svc = arm(42)
	client.handleBootstrapAck(svc, ackPayload(0))
	if st := client.Stats(); st.HandoffsFailed != 2 {
		t.Fatalf("zero ack admitted the device: %+v", st)
	}

	// The matching ack admits, on probation.
	svc = arm(42)
	client.handleBootstrapAck(svc, ackPayload(42))
	if st := client.Stats(); st.HandoffsCompleted != 1 || st.HandoffsFailed != 2 {
		t.Fatalf("matching ack not admitted: %+v", st)
	}
	if h := svc.dev.Health(); h != dispatch.Suspect {
		t.Fatalf("device %v after matching ack, want suspect probation", h)
	}

	// A late duplicate ack (no live handoff) is just an unexpected
	// message, not a state transition.
	client.handleBootstrapAck(svc, ackPayload(42))
	if st := client.Stats(); st.RecvUnexpected != 1 || st.HandoffsCompleted != 1 {
		t.Fatalf("stale ack changed handoff state: %+v", st)
	}
}

// TestDrainServiceMigratesInflight drains a device that still owes
// results and checks its in-flight frames migrate to the replica
// instead of gap-skipping.
func TestDrainServiceMigratesInflight(t *testing.T) {
	p, err := workload.ByID("G5")
	if err != nil {
		t.Fatal(err)
	}
	game := workload.NewGame(p, 3)
	r := newRig(t, 2, &glwireArrays{game: game}, 0)
	sink := r.client.Sink()

	const frames = 8
	for f := 0; f < frames; f++ {
		for _, cmd := range game.NextFrame().Commands {
			sink(cmd)
		}
		if f == frames/2 {
			if err := r.client.DrainService("server-A"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f := 0; f < frames; f++ {
		got, err := r.client.NextFrame(5 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if got.Seq != uint64(f) {
			t.Fatalf("display order broken: got %d want %d", got.Seq, f)
		}
	}
	st := r.client.Stats()
	if st.FramesSkipped != 0 {
		t.Fatalf("drain skipped frames: %+v", st)
	}
	if err := r.client.DrainService("no-such-device"); err == nil {
		t.Fatal("draining an unknown service must fail")
	}
}

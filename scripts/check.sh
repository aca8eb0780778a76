#!/bin/sh
# Repo check gate: the tier-1 verify from ROADMAP.md plus static vetting
# and race-detector coverage of the concurrency-heavy packages (the
# in-memory network every test runs on, the reliable-UDP transport and
# the client/server core). Loss-soak tests
# honor -short, so the race pass stays fast.
set -eux

cd "$(dirname "$0")/.."

# gate REGEX ARGS...: go test -run REGEX ARGS..., after checking that
# REGEX still selects at least one Test in those packages — a renamed
# test must fail the gate, not drop out of it.
gate() {
	regex="$1"
	shift
	if ! go test -list "$regex" "$@" | grep -q '^Test'; then
		echo "check.sh: -run '$regex' selects no test in: $*" >&2
		exit 1
	fi
	go test -run "$regex" "$@"
}

go build ./...
go vet ./...
go test ./...
go test -race -short ./internal/netsim/... ./internal/rudp/... ./internal/core/...
# Fleet soak under the race detector: 64 sessions with churn and crash
# injection demuxed over one listener, plus the dispatch gate. The
# demux loop, timer wheel, admission path, and idle reaper all
# interleave here.
go test -race -short ./internal/fleet/... ./internal/dispatch/...
# GPU gate admission order under the race detector, repeated: arrival
# order within a priority, priority across them, direct hand-off, and a
# cancel racing the hand-off never losing or duplicating a slot. Then
# the §VIII experiment, which is goroutines over one shared gate.
gate 'TestGate' -race -count=20 ./internal/dispatch/
gate 'TestMultiUserExperiment' -race -count=5 ./internal/experiments/
# Peer-validation regression gates: the stray-peer datagram drop in the
# transport read loop, the garbage-first-datagram accept check, and the
# absolute accept deadline.
gate 'Stray|GarbageFirstDatagram|AcceptDeadline' -race ./internal/rudp/... .
# Transport replay and receive-buffer gates, repeated: two conns over a
# seeded lossy link on one virtual clock must write the same datagrams
# byte for byte every run, and out-of-order datagrams beyond
# Window + 64 must be refused, not buffered.
gate 'TestLossyTraceDeterministic|TestRecvBufBounded' -count=5 ./internal/rudp/
# Device-crash failover soaks under the race detector: the blackhole
# fault injector plus the client's failover loop are the most
# contended paths in the tree.
gate 'Failover|Crash|Blackhole' -race -short ./internal/netsim/... .
# Session handoff soaks under the race detector: the checkpoint
# capture, the handoff goroutine's queued-send path, and the
# crash-recover-hot-join lifecycle all interleave with the flush and
# failover paths.
gate 'Handoff|HotJoin' -race -short ./internal/core/... .
# Uplink allocation gate: the steady-state flush path must stay at
# exactly zero allocations per frame. Runs without -race on purpose —
# the race runtime's shadow allocations make an exact-zero assertion
# impossible, so the race pass above skips this test by design.
gate 'TestUplinkFlushZeroAllocSteadyState' -count=1 ./internal/core/
# Downlink allocation gate: the whole serve cycle — rudp receive,
# reassembly, decompress, cache decode, wire decode, execute, encode,
# reply send, ACK — must also be zero-alloc at steady state. Same
# non-race rationale as the uplink gate.
gate 'TestDownlinkServeZeroAllocSteadyState' -count=1 ./internal/core/
# Turbo source-memo exactness under the race detector: the encoder that
# skips tiles whose source bytes did not change must drive its decoder
# to byte-identical frames as a scan-only reference, at par 1/2/NumCPU
# (workers share prev/src/settled, each tile's region its own), through
# quality steps and a forced keyframe.
gate 'TestMemoMatchesScanOnlyReference' -race -count=1 ./internal/turbo/
# Turbo packet parser fuzz smoke: ten seconds of mutations of the seed
# corpus (valid key/delta packets plus one packet per malformed shape the
# bit reader and the tile framing must refuse) at serial and parallel
# degree. No panic; serial and parallel agree on accept/reject, on the
# error and on the pixels; an error always leaves the decoder waiting
# for a keyframe.
go test -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/turbo/
# Rasterizer exactness under the race detector: the span solver against
# the per-pixel oracle it replaced, every band degree against the serial
# render, a recorded frame resolved in bands against rasterizing every
# command as it executes, and the benchmark's workload shapes against
# hashes taken before the span solver existed. Band workers share the
# recording read-only and own disjoint framebuffer rows; this is the
# only race coverage the gles package has.
gate 'TestSpanMatchesReference|TestParallelRasterByteIdentical|TestFrameResolveByteIdentical|TestWorkloadGolden' -race -count=1 ./internal/gles/
# Draw allocation gate: a draw from a VBO, from a client array, or
# through an index buffer, and the resolve of the frame, reuse the GPU's
# scratch and recording and allocate nothing.
# No -race, for the same reason as the two gates above.
gate 'TestDrawZeroAllocSteadyState' -count=1 ./internal/gles/
# Batched-egress race gates: sendmmsg/recvmmsg parity with the portable
# loop (byte-identical wire traffic), and the fleet egress writer's
# ordering/overflow behavior under producer concurrency.
go test -race -count=1 ./internal/batchio/
gate 'TestEgress' -race -count=1 ./internal/fleet/
# Benchmark smokes: one iteration of every micro-benchmark series
# proves each still builds and runs. Full numbers come from the same
# lines without -benchtime (or with a larger one).
go test -run '^$' -bench 'BenchmarkTurboEncode|BenchmarkTurboDecode' -benchtime 1x ./internal/turbo/
go test -run '^$' -bench 'BenchmarkRaster' -benchtime 1x ./internal/gles/
go test -run '^$' -bench 'BenchmarkDownlinkServe|BenchmarkFleetServe' -benchmem -benchtime 1x ./internal/fleet/
go test -run '^$' -bench 'BenchmarkUplinkFrame|BenchmarkHandoff' -benchmem -benchtime 1x ./internal/core/
go test -run '^$' -bench 'BenchmarkPredictAB' -benchtime 1x ./internal/predict/
# Turbo throughput floor: single-thread 720p encode must reach 60 MB/s
# (the fixed-point pipeline sustains ~110; 60 leaves headroom for slow
# hosts). The rate is the field before "MB/s" on the series' line,
# whose name go test suffixes with -GOMAXPROCS. A missing series fails
# too: a renamed or skipped benchmark must not read as a pass.
min_mbps() {
	awk -v name="$1" -v min="$2" '
		{ n = $1; sub(/-[0-9]+$/, "", n) }
		n == name { for (i = 3; i <= NF; i++) if ($i == "MB/s") { rate = $(i - 1); found = 1 } }
		END {
			err = "cat 1>&2"
			if (!found) { print "check.sh: " name " missing from the benchmark output" | err; exit 1 }
			if (rate + 0 < min + 0) { print "check.sh: " name " ran at " rate " MB/s, below the " min " MB/s floor" | err; exit 1 }
			print "check.sh: " name " " rate " MB/s >= " min " MB/s"
		}'
}
turbo_out="$(go test -run '^$' -bench 'BenchmarkTurboEncode/1280x720/par=1$' -benchtime 5x ./internal/turbo/)"
printf '%s\n' "$turbo_out" | min_mbps 'BenchmarkTurboEncode/1280x720/par=1' 60
# Load-harness race smokes: the worker-pool executor, the hub's
# per-port shapers, and the fleet's demux/reap paths all interleave
# here — first the in-process churn/hot-join executor tests, then a
# scaled-down flash-crowd stampede through the real CLI.
go test -race -short ./internal/loadgen/
go run -race ./cmd/gbooster-load -scenario flash-crowd \
	-sessions 8 -frames 8 -width 128 -height 96 >/dev/null
# Load-harness smoke: all five scenario presets run end to end through
# the real CLI, scaled down.
go run ./cmd/gbooster-load -scenario all -sessions 6 -frames 8 -width 128 -height 96 >/dev/null
# Predictive control plane under the race detector: the live player
# drives ObserveFrame / Tick / Snapshot from three goroutines, and the
# forecast on/off A/B gate (fewer wake stalls AND lower energy per
# delivered frame with the forecast on) runs inside the same pass.
go test -race -short ./internal/predict/ ./internal/timeseries/ ./internal/ifswitch/
# Forecast on/off A/B smoke through the real player path: a predictive
# session must run end to end and carry its prediction/energy block
# through Player.Snapshot.
gate 'TestPredictiveControlSnapshot|TestPredictDefaultOff' -race -count=1 .

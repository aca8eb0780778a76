package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/lz4"
	"github.com/gbooster/gbooster/internal/turbo"
	"github.com/gbooster/gbooster/internal/workload"
)

// TrafficResult is the §V-A redundancy-elimination measurement on the
// real data plane: actual serialized command bytes and actual rendered
// pixels, through the actual cache/compressor/codec implementations.
type TrafficResult struct {
	Frames int

	// Uplink (graphics commands), bytes per frame.
	UplinkRaw      float64 // serialized records, no optimization
	UplinkAfterLRU float64 // after the mirrored LRU command cache
	UplinkAfterLZ4 float64 // after cache + LZ4
	CacheHitRate   float64
	LZ4Ratio       float64 // compressed/pre-compressed

	// Downlink (rendered frames), bytes per frame.
	DownlinkRaw   float64 // raw RGBA
	DownlinkTurbo float64 // turbo tile-delta packets
	TurboRatio    float64

	// Encoder throughput measured on this host (megapixels/second).
	TurboMPps float64
	VideoMPps float64

	// DownlinkVideo is the video stand-in's mean packet size over its
	// three frames (one intra, two inter), written with turbo's own
	// coefficient coder, so the two byte counts compare like for like.
	DownlinkVideo float64
}

// Traffic measures the traffic pipeline on frames of the given
// workload.
func Traffic(id string, frames int, seed uint64) (TrafficResult, string, error) {
	prof, err := workload.ByID(id)
	if err != nil {
		return TrafficResult{}, "", err
	}
	if frames <= 0 {
		frames = 40
	}
	game := workload.NewGame(prof, seed)
	enc := glwire.NewEncoder(game.Arrays())
	cache := cmdcache.New(0)
	gpu := gles.NewGPU(workload.StreamW, workload.StreamH)
	tEnc := turbo.NewEncoder(workload.StreamW, workload.StreamH, turbo.DefaultQuality)
	var dec glwire.Decoder

	var res TrafficResult
	res.Frames = frames
	var rawUp, lruUp, lz4Up, turboDown int64
	var encodeTime time.Duration
	var encodePixels int64

	for f := 0; f < frames; f++ {
		frame := game.NextFrame()
		buf, err := enc.EncodeAll(nil, frame.Commands)
		if err != nil {
			return res, "", fmt.Errorf("frame %d encode: %w", f, err)
		}
		rawUp += int64(len(buf))
		recs, err := glwire.SplitRecords(buf)
		if err != nil {
			return res, "", err
		}
		wire, _, err := cache.EncodeAll(nil, recs)
		if err != nil {
			return res, "", err
		}
		lruUp += int64(len(wire))
		lz4Up += int64(len(lz4.Compress(nil, wire)))

		// Execute and turbo-encode the real frame.
		cmds, err := dec.DecodeAll(buf)
		if err != nil {
			return res, "", err
		}
		if _, err := gpu.ExecuteAll(cmds); err != nil {
			return res, "", fmt.Errorf("frame %d execute: %w", f, err)
		}
		start := time.Now()
		pkt, err := tEnc.Encode(gpu.FB.Pix, false)
		if err != nil {
			return res, "", err
		}
		encodeTime += time.Since(start)
		encodePixels += int64(workload.StreamW * workload.StreamH)
		turboDown += int64(len(pkt))
	}

	n := float64(frames)
	res.UplinkRaw = float64(rawUp) / n
	res.UplinkAfterLRU = float64(lruUp) / n
	res.UplinkAfterLZ4 = float64(lz4Up) / n
	res.CacheHitRate = float64(cache.Stats.Hits) / float64(cache.Stats.Hits+cache.Stats.Misses)
	res.LZ4Ratio = float64(lz4Up) / float64(lruUp)
	res.DownlinkRaw = float64(workload.StreamW * workload.StreamH * 4)
	res.DownlinkTurbo = float64(turboDown) / n
	res.TurboRatio = res.DownlinkTurbo / res.DownlinkRaw
	res.TurboMPps = float64(encodePixels) / 1e6 / encodeTime.Seconds()

	// x264 stand-in throughput: a few frames are enough to demonstrate
	// the order-of-magnitude gap.
	vEnc := turbo.NewVideoEncoder(workload.StreamW, workload.StreamH, turbo.DefaultQuality, 16)
	game2 := workload.NewGame(prof, seed+1)
	enc2 := glwire.NewEncoder(game2.Arrays())
	gpu2 := gles.NewGPU(workload.StreamW, workload.StreamH)
	var dec2 glwire.Decoder
	var vTime time.Duration
	var vPixels int64
	for f := 0; f < 3; f++ {
		buf, err := enc2.EncodeAll(nil, game2.NextFrame().Commands)
		if err != nil {
			return res, "", err
		}
		cmds, err := dec2.DecodeAll(buf)
		if err != nil {
			return res, "", err
		}
		if _, err := gpu2.ExecuteAll(cmds); err != nil {
			return res, "", err
		}
		start := time.Now()
		if _, err := vEnc.Encode(gpu2.FB.Pix); err != nil {
			return res, "", err
		}
		vTime += time.Since(start)
		vPixels += int64(workload.StreamW * workload.StreamH)
	}
	res.VideoMPps = float64(vPixels) / 1e6 / vTime.Seconds()
	res.DownlinkVideo = float64(vEnc.Stats.BytesOut) / float64(vEnc.Stats.Frames)

	var b strings.Builder
	fmt.Fprintf(&b, "Traffic optimization (§V-A) on %s, %d frames at %dx%d\n",
		id, frames, workload.StreamW, workload.StreamH)
	fmt.Fprintf(&b, "  uplink  raw commands:     %8.1f KB/frame\n", res.UplinkRaw/1024)
	fmt.Fprintf(&b, "  uplink  after LRU cache:  %8.1f KB/frame (hit rate %.0f%%)\n", res.UplinkAfterLRU/1024, res.CacheHitRate*100)
	fmt.Fprintf(&b, "  uplink  after LZ4:        %8.1f KB/frame (LZ4 ratio %.2f)\n", res.UplinkAfterLZ4/1024, res.LZ4Ratio)
	fmt.Fprintf(&b, "  downlink raw RGBA:        %8.1f KB/frame\n", res.DownlinkRaw/1024)
	fmt.Fprintf(&b, "  downlink turbo packets:   %8.1f KB/frame (%.0f:1)\n", res.DownlinkTurbo/1024, 1/res.TurboRatio)
	fmt.Fprintf(&b, "  turbo encoder throughput: %8.1f MP/s on this host\n", res.TurboMPps)
	fmt.Fprintf(&b, "  video encoder stand-in:   %8.2f MP/s (motion search, x264 role), %.1f KB/frame\n", res.VideoMPps, res.DownlinkVideo/1024)
	fmt.Fprintf(&b, "  encoder speed ratio:      %8.0fx — software video encoding cannot keep real time\n", res.TurboMPps/res.VideoMPps)
	return res, b.String(), nil
}

package gles

import (
	"encoding/binary"
	"fmt"
	"image"
	"sync/atomic"

	"github.com/gbooster/gbooster/internal/parallel"
)

// GPU couples a Context with a Framebuffer and executes command
// streams, exactly as the paper's service device feeds intercepted
// commands into its local GPU (§IV-C). It also accounts the work each
// command performs so callers can convert workload into GPU time via a
// device's fillrate.
//
// Clears and draws are recorded, not rasterized, when they execute:
// vertex fetch, transform and triangle set-up run then, and the
// rasterization of the whole recording waits for a resolve — the
// SwapBuffers, Flush or Finish that ends it, or a caller that drives
// ResolveRows itself (the server fuses it into the frame's encode).
// Until then FB holds the pixels of the last resolve.
type GPU struct {
	Ctx *Context
	FB  *Framebuffer

	// FragmentsShaded accumulates fragments rasterized since creation.
	FragmentsShaded int64
	// FramesCompleted counts SwapBuffers boundaries executed.
	FramesCompleted int64

	// par is the row-band degree of a resolve; <= 1 keeps the serial
	// path. Output is byte-identical at every degree.
	par int

	scratch drawScratch

	// The recording: every clear and draw since the last resolve, in
	// submission order, and the set-up triangles of its draws. Both are
	// reused from frame to frame.
	ops  []rasterOp
	tris []triSetup
	// resolved counts the fragments ResolveRows has shaded since the last
	// Retire; band workers add to it concurrently.
	resolved atomic.Int64
}

// NewGPU returns a GPU rendering into a w×h framebuffer with a fresh
// context. Rasterization is serial by default; opt in to band
// parallelism with SetParallelism.
func NewGPU(w, h int) *GPU {
	return &GPU{Ctx: NewContext(), FB: NewFramebuffer(w, h)}
}

// SetParallelism sets the row-band worker degree of a resolve: n <= 0
// selects one band per CPU, 1 restores the serial path. Safe to call
// between Execute calls, not concurrently with them.
func (g *GPU) SetParallelism(n int) {
	g.par = parallel.Degree(n)
}

// ExecResult describes what one command did.
type ExecResult struct {
	// Fragments is the number of fragments the command shaded. A clear
	// or a draw is recorded and shades none when it executes; the
	// SwapBuffers, Flush or Finish that resolves the recording reports
	// the fragments of everything recorded since the last resolve.
	Fragments int64
	// FrameDone reports that the command was a SwapBuffers boundary and
	// the current framebuffer content is the finished frame.
	FrameDone bool
}

// Execute runs one command: state commands mutate the context, clears
// and draws are recorded, and SwapBuffers, Flush and Finish resolve the
// recording into FB. Errors are diagnostic; the GPU remains usable,
// like a real driver raising GL_INVALID_OPERATION.
func (g *GPU) Execute(cmd Command) (ExecResult, error) {
	res, err := g.Record(cmd)
	if err == nil {
		switch cmd.Op {
		case OpSwapBuffers, OpFlush, OpFinish:
			res.Fragments = g.Resolve()
		}
	}
	return res, err
}

// Record is Execute without the resolve: SwapBuffers, Flush and Finish
// leave the recording for the caller, who must resolve it — with
// Resolve, or with ResolveRows over every row and then Retire — before
// FB is read or the GPU is used elsewhere.
func (g *GPU) Record(cmd Command) (ExecResult, error) {
	var res ExecResult
	if err := g.Ctx.Apply(cmd); err != nil {
		return res, fmt.Errorf("apply %v: %w", cmd.Op, err)
	}
	switch cmd.Op {
	case OpClear:
		g.recordClear(cmd.Int(0))
	case OpDrawArrays:
		if err := g.draw(cmd.Int(0), int(cmd.Int(1)), int(cmd.Int(2)), nil); err != nil {
			return res, fmt.Errorf("drawArrays: %w", err)
		}
	case OpDrawElements:
		indices, err := g.drawIndices(cmd)
		if err != nil {
			return res, err
		}
		if err := g.draw(cmd.Int(0), 0, 0, indices); err != nil {
			return res, fmt.Errorf("drawElements: %w", err)
		}
	case OpSwapBuffers:
		g.FramesCompleted++
		res.FrameDone = true
	}
	return res, nil
}

// ExecuteAll runs a command slice, stopping at the first error.
func (g *GPU) ExecuteAll(cmds []Command) (ExecResult, error) {
	var total ExecResult
	for _, cmd := range cmds {
		res, err := g.Execute(cmd)
		total.Fragments += res.Fragments
		total.FrameDone = total.FrameDone || res.FrameDone
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Resolve rasterizes the recording into FB — in row bands across par
// workers, one fan-out for everything recorded — retires it and returns
// the fragments shaded.
func (g *GPU) Resolve() int64 {
	if len(g.ops) > 0 {
		if g.par > 1 {
			parallel.Do(g.par, g.FB.H, func(lo, hi int) { g.ResolveRows(lo, hi) })
		} else {
			g.ResolveRows(0, g.FB.H)
		}
	}
	return g.Retire()
}

// ResolveRows replays the recording, in submission order, clipped to
// rows [y0, y1) of FB, and returns the fragments shaded. Every pixel
// belongs to exactly one row, so however the rows are split the
// per-pixel sequence of depth tests and blends is the serial one, and
// calls on disjoint rows may run concurrently (sort-middle style). The
// recording stays in place until Retire; each row must be resolved
// exactly once before it.
func (g *GPU) ResolveRows(y0, y1 int) int64 {
	fb := g.FB
	rows := image.Rect(0, y0, fb.W, y1)
	var shaded int64
	for i := range g.ops {
		op := &g.ops[i]
		if op.draw {
			if op.box.Overlaps(rows) {
				shaded += op.rasterBand(fb, g.tris, y0, y1)
			}
			continue
		}
		if r := op.box.Intersect(rows); !r.Empty() {
			fb.clearRect(r, op.color[0], op.color[1], op.color[2], op.color[3])
			shaded += int64(r.Dx() * r.Dy())
		}
		if op.depthClear && fb.Depth != nil {
			fillDepth(fb.Depth[y0*fb.W : y1*fb.W])
		}
	}
	g.resolved.Add(shaded)
	return shaded
}

// Retire ends a resolve: once ResolveRows has covered every row, it
// drops the recording and returns the fragments those calls shaded,
// which it adds to FragmentsShaded.
func (g *GPU) Retire() int64 {
	clear(g.ops) // a draw pins the texels it sampled; let them go
	g.ops, g.tris = g.ops[:0], g.tris[:0]
	n := g.resolved.Swap(0)
	g.FragmentsShaded += n
	return n
}

// recordClear records a glClear. The color buffer is cleared inside the
// clip rectangle draws use — glClear is scissored when
// GL_SCISSOR_TEST is on — and the depth buffer whole.
func (g *GPU) recordClear(mask int32) {
	ctx, fb := g.Ctx, g.FB
	op := rasterOp{depthClear: mask&ClearDepthBit != 0}
	if mask&ClearColorBit != 0 {
		op.box = clipRect(fb.W, fb.H, ctx.Caps[CapScissorTest],
			int(ctx.ScissorX), int(ctx.ScissorY), int(ctx.ScissorW), int(ctx.ScissorH))
		op.color = [4]uint8{clamp8(ctx.ClearR), clamp8(ctx.ClearG), clamp8(ctx.ClearB), clamp8(ctx.ClearA)}
	}
	if op.box.Empty() && !op.depthClear {
		return
	}
	g.ops = append(g.ops, op)
}

// drawIndices resolves the index array for a DrawElements call, either
// from the bound element-array buffer (at the offset argument) or from
// client memory carried in the command, into the draw scratch.
func (g *GPU) drawIndices(cmd Command) ([]uint16, error) {
	count := int(cmd.Int(1))
	if count < 0 {
		return nil, fmt.Errorf("%w: count %d", ErrBadArguments, count)
	}
	var raw []byte
	if g.Ctx.BoundElemBuf != 0 {
		buf, ok := g.Ctx.Buffers[g.Ctx.BoundElemBuf]
		if !ok {
			return nil, fmt.Errorf("%w: element buffer %d", ErrUnknownObject, g.Ctx.BoundElemBuf)
		}
		off := int(cmd.Int(3))
		if off < 0 || off+count*2 > len(buf.Data) {
			return nil, fmt.Errorf("%w: indices [%d,%d) of %d", ErrOutOfRangeDraw, off, off+count*2, len(buf.Data))
		}
		raw = buf.Data[off : off+count*2]
	} else {
		if count*2 > len(cmd.Data) {
			return nil, fmt.Errorf("%w: %d indices with %d data bytes", ErrOutOfRangeDraw, count, len(cmd.Data))
		}
		raw = cmd.Data[:count*2]
	}
	idx := g.scratch.idx[:0]
	for i := 0; i+1 < len(raw); i += 2 {
		idx = append(idx, binary.LittleEndian.Uint16(raw[i:]))
	}
	g.scratch.idx = idx
	return idx, nil
}

// EstimateCost returns the command's GPU workload in fragments without
// executing it, following the offline-profiling approach of TimeGraph
// that the paper adopts for Eq. 4's request workload r. Estimates are
// intentionally cheap and slightly conservative: draws are costed by
// the clip-space bounding box of their vertices; state changes carry a
// small fixed pipeline-stall cost.
func EstimateCost(ctx *Context, fbW, fbH int, cmd Command) int64 {
	const stateChangeCost = 16 // fragments-equivalent pipeline cost
	switch cmd.Op {
	case OpClear:
		return int64(fbW * fbH)
	case OpDrawArrays:
		return estimateDrawCost(ctx, fbW, fbH, int(cmd.Int(2)))
	case OpDrawElements:
		return estimateDrawCost(ctx, fbW, fbH, int(cmd.Int(1)))
	case OpTexImage2D:
		return int64(cmd.Int(2)) * int64(cmd.Int(3))
	case OpBufferData, OpBufferSubData:
		return int64(len(cmd.Data) / 4)
	case OpSwapBuffers, OpFlush, OpFinish:
		return 0
	default:
		return stateChangeCost
	}
}

func estimateDrawCost(ctx *Context, fbW, fbH int, vertCount int) int64 {
	// Without running the vertex stage we assume triangles cover a
	// screen fraction proportional to triangle count, capped at one
	// full-screen overdraw. 128 fragments/triangle reflects the small-
	// triangle regime of mobile scenes.
	const fragsPerTri = 128
	tris := vertCount / 3
	cost := int64(tris) * fragsPerTri
	if maxCost := int64(fbW * fbH); cost > maxCost {
		cost = maxCost
	}
	if ctx != nil && ctx.Caps[CapBlend] {
		cost += cost / 4 // blending touches the target twice
	}
	return cost
}

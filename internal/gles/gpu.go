package gles

import (
	"encoding/binary"
	"fmt"

	"github.com/gbooster/gbooster/internal/parallel"
)

// GPU couples a Context with a Framebuffer and executes command
// streams, exactly as the paper's service device feeds intercepted
// commands into its local GPU (§IV-C). It also accounts the work each
// command performs so callers can convert workload into GPU time via a
// device's fillrate.
type GPU struct {
	Ctx *Context
	FB  *Framebuffer

	// FragmentsShaded accumulates fragments rasterized since creation.
	FragmentsShaded int64
	// FramesCompleted counts SwapBuffers boundaries executed.
	FramesCompleted int64

	// par is the scanline-band rasterization degree; <= 1 keeps the
	// serial path. Output is byte-identical at every degree.
	par int

	scratch drawScratch
}

// NewGPU returns a GPU rendering into a w×h framebuffer with a fresh
// context. Rasterization is serial by default; opt in to band
// parallelism with SetParallelism.
func NewGPU(w, h int) *GPU {
	return &GPU{Ctx: NewContext(), FB: NewFramebuffer(w, h)}
}

// SetParallelism sets the scanline-band worker degree for draw calls:
// n <= 0 selects one band per CPU, 1 restores the serial path. Safe to
// call between Execute calls, not concurrently with them.
func (g *GPU) SetParallelism(n int) {
	g.par = parallel.Degree(n)
}

// ExecResult describes what one command did.
type ExecResult struct {
	// Fragments is the number of fragments shaded by the command (only
	// draws and clears shade fragments).
	Fragments int64
	// FrameDone reports that the command was a SwapBuffers boundary and
	// the current framebuffer content is the finished frame.
	FrameDone bool
}

// Execute runs one command: state commands mutate the context, draw
// commands rasterize into the framebuffer. Errors are diagnostic; the
// GPU remains usable, like a real driver raising GL_INVALID_OPERATION.
func (g *GPU) Execute(cmd Command) (ExecResult, error) {
	var res ExecResult
	if err := g.Ctx.Apply(cmd); err != nil {
		return res, fmt.Errorf("apply %v: %w", cmd.Op, err)
	}
	switch cmd.Op {
	case OpClear:
		mask := cmd.Int(0)
		if mask&ClearColorBit != 0 {
			res.Fragments = g.clearColor()
		}
		if mask&ClearDepthBit != 0 {
			g.FB.ClearDepthBuf()
		}
	case OpDrawArrays:
		n, err := g.draw(cmd.Int(0), int(cmd.Int(1)), int(cmd.Int(2)), nil)
		if err != nil {
			return res, fmt.Errorf("drawArrays: %w", err)
		}
		res.Fragments = n
	case OpDrawElements:
		indices, err := g.drawIndices(cmd)
		if err != nil {
			return res, err
		}
		n, err := g.draw(cmd.Int(0), 0, 0, indices)
		if err != nil {
			return res, fmt.Errorf("drawElements: %w", err)
		}
		res.Fragments = n
	case OpSwapBuffers:
		g.FramesCompleted++
		res.FrameDone = true
	}
	g.FragmentsShaded += res.Fragments
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

// clearColor clears the color buffer inside the clip rectangle draws
// use — glClear is scissored when GL_SCISSOR_TEST is on — and returns
// the pixels cleared.
func (g *GPU) clearColor() int64 {
	ctx, fb := g.Ctx, g.FB
	r := clipRect(fb.W, fb.H, ctx.Caps[CapScissorTest],
		int(ctx.ScissorX), int(ctx.ScissorY), int(ctx.ScissorW), int(ctx.ScissorH))
	fb.clearRect(r, clamp8(ctx.ClearR), clamp8(ctx.ClearG), clamp8(ctx.ClearB), clamp8(ctx.ClearA))
	return int64(r.Dx() * r.Dy())
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

package gles

import (
	"errors"
	"fmt"
	"slices"
)

// Errors reported by Context.Apply. Servers log these; they never
// panic, mirroring how a GL driver records GL_INVALID_* errors.
var (
	ErrUnknownOp      = errors.New("gles: unknown op")
	ErrBadArguments   = errors.New("gles: bad arguments")
	ErrUnknownObject  = errors.New("gles: unknown object id")
	ErrNoProgram      = errors.New("gles: no program in use")
	ErrMissingAttrib  = errors.New("gles: draw without position attribute")
	ErrOutOfRangeDraw = errors.New("gles: draw references data out of range")
)

// Texture is a server-side texture object.
type Texture struct {
	ID     int32
	Width  int
	Height int
	// Pixels is RGBA, 4 bytes per texel, row-major.
	Pixels []byte
}

// Sample returns the texel at normalized coordinates (u, v) with
// repeat wrapping and nearest filtering.
func (t *Texture) Sample(u, v float32) (r, g, b, a uint8) {
	if t == nil || t.Width == 0 || t.Height == 0 {
		return 255, 255, 255, 255
	}
	x := wrapTexel(u, float32(t.Width), t.Width)
	y := wrapTexel(v, float32(t.Height), t.Height)
	i := (y*t.Width + x) * 4
	if i < 0 || i+3 >= len(t.Pixels) {
		return 255, 255, 255, 255
	}
	return t.Pixels[i], t.Pixels[i+1], t.Pixels[i+2], t.Pixels[i+3]
}

// wrapTexel maps a normalized coordinate to a texel index along an axis
// of n texels (fn is float32(n)): repeat wrapping, nearest filtering.
// The rasterizer's span loop and Sample share it, so they agree bit for
// bit.
func wrapTexel(c, fn float32, n int) int {
	// Subtracting the integer part leaves a coordinate already in [0,1)
	// as it is, so that case skips the two conversions.
	if !(c >= 0 && c < 1) {
		c -= float32(int(c))
		if c < 0 {
			c++
		}
	}
	i := int(c * fn)
	if i >= n {
		i = n - 1
	}
	return i
}

// Buffer is a server-side VBO/IBO.
type Buffer struct {
	ID    int32
	Data  []byte
	Usage int32
}

// Shader is a compiled shader object. Compilation is declaration
// scanning: the context only needs to know which attributes/uniforms a
// program declares.
type Shader struct {
	ID       int32
	Type     int32
	Source   string
	Compiled bool
}

// Program is a linked program object.
type Program struct {
	ID      int32
	Shaders []int32
	Linked  bool
}

// AttribBinding records a glVertexAttribPointer call.
type AttribBinding struct {
	Enabled bool
	Size    int32 // components per vertex: 1..4
	Type    int32 // AttribTypeFloat
	Stride  int32 // bytes between vertices; 0 = tightly packed
	Offset  int32 // byte offset when sourcing from a bound VBO
	// Buffer is the VBO id the pointer sources from, or 0 for a
	// client-side array carried in ClientData.
	Buffer     int32
	ClientData []byte
}

// Context is the OpenGL ES server-side state machine (§VI-B). All
// rendering state lives here; replicating the state-mutating command
// stream to two Contexts leaves them identical, which is the invariant
// GBooster's multi-device mode depends on.
type Context struct {
	Textures map[int32]*Texture
	Buffers  map[int32]*Buffer
	Shaders  map[int32]*Shader
	Programs map[int32]*Program

	ClearR, ClearG, ClearB, ClearA float32
	ViewportX, ViewportY           int32
	ViewportW, ViewportH           int32
	ScissorX, ScissorY             int32
	ScissorW, ScissorH             int32

	Caps map[int32]bool // Enable/Disable toggles

	BlendSrc, BlendDst int32
	DepthFn            int32

	ActiveTexUnit int32
	BoundTexture  [MaxTextureUnits]int32
	BoundArrayBuf int32
	BoundElemBuf  int32

	CurrentProgram int32
	Uniforms       map[int32][]float32 // location -> value (len 1..16)
	UniformInts    map[int32]int32     // sampler bindings etc.

	Attribs map[int32]*AttribBinding

	// Stats accumulate across Apply calls; the cost model and the
	// exogenous-feature extraction (§V-B) read them.
	Stats ContextStats
}

// ContextStats counts work the context has performed.
type ContextStats struct {
	Commands     int
	Draws        int
	TexelsLoaded int64
	BytesBuffers int64
	Errors       int
}

// NewContext returns an empty context with default GL state.
func NewContext() *Context {
	return &Context{
		Textures:    make(map[int32]*Texture),
		Buffers:     make(map[int32]*Buffer),
		Shaders:     make(map[int32]*Shader),
		Programs:    make(map[int32]*Program),
		Caps:        make(map[int32]bool),
		Uniforms:    make(map[int32][]float32),
		UniformInts: make(map[int32]int32),
		Attribs:     make(map[int32]*AttribBinding),
		ViewportW:   1, ViewportH: 1,
		BlendSrc: BlendSrcAlpha, BlendDst: BlendOneMinusSrcA,
		DepthFn: DepthFuncLess,
	}
}

// Apply executes one state-affecting command against the context. Draw
// commands only validate here; rasterization is the GPU's job. The
// returned error is diagnostic — the context stays usable.
func (c *Context) Apply(cmd Command) error {
	c.Stats.Commands++
	err := c.apply(cmd)
	if err != nil {
		c.Stats.Errors++
	}
	return err
}

func (c *Context) apply(cmd Command) error {
	switch cmd.Op {
	case OpClearColor:
		c.ClearR, c.ClearG, c.ClearB, c.ClearA = cmd.Float(0), cmd.Float(1), cmd.Float(2), cmd.Float(3)
	case OpClear:
		// Framebuffer-side effect handled by the GPU.
	case OpViewport:
		if cmd.Int(2) < 0 || cmd.Int(3) < 0 {
			return fmt.Errorf("%w: viewport %dx%d", ErrBadArguments, cmd.Int(2), cmd.Int(3))
		}
		c.ViewportX, c.ViewportY = cmd.Int(0), cmd.Int(1)
		c.ViewportW, c.ViewportH = cmd.Int(2), cmd.Int(3)
	case OpEnable:
		c.Caps[cmd.Int(0)] = true
	case OpDisable:
		c.Caps[cmd.Int(0)] = false
	case OpBlendFunc:
		c.BlendSrc, c.BlendDst = cmd.Int(0), cmd.Int(1)
	case OpDepthFunc:
		c.DepthFn = cmd.Int(0)
	case OpGenTexture:
		id := cmd.Int(0)
		if id <= 0 {
			return fmt.Errorf("%w: texture id %d", ErrBadArguments, id)
		}
		c.Textures[id] = &Texture{ID: id}
	case OpDeleteTexture:
		delete(c.Textures, cmd.Int(0))
	case OpActiveTexture:
		unit := cmd.Int(0) - TextureUnit0
		if unit < 0 || unit >= MaxTextureUnits {
			return fmt.Errorf("%w: texture unit %d", ErrBadArguments, cmd.Int(0))
		}
		c.ActiveTexUnit = unit
	case OpBindTexture:
		id := cmd.Int(1)
		if id != 0 {
			if _, ok := c.Textures[id]; !ok {
				return fmt.Errorf("%w: texture %d", ErrUnknownObject, id)
			}
		}
		c.BoundTexture[c.ActiveTexUnit] = id
	case OpTexImage2D:
		// Ints: target, level, width, height, format
		id := c.BoundTexture[c.ActiveTexUnit]
		tex, ok := c.Textures[id]
		if !ok {
			return fmt.Errorf("%w: no texture bound", ErrUnknownObject)
		}
		w, h := int(cmd.Int(2)), int(cmd.Int(3))
		if w <= 0 || h <= 0 || len(cmd.Data) < w*h*4 {
			return fmt.Errorf("%w: teximage %dx%d with %d bytes", ErrBadArguments, w, h, len(cmd.Data))
		}
		tex.Width, tex.Height = w, h
		tex.Pixels = append([]byte(nil), cmd.Data[:w*h*4]...)
		c.Stats.TexelsLoaded += int64(w * h)
	case OpTexParameteri:
		// Filtering is always nearest in the substituted rasterizer.
	case OpGenBuffer:
		id := cmd.Int(0)
		if id <= 0 {
			return fmt.Errorf("%w: buffer id %d", ErrBadArguments, id)
		}
		c.Buffers[id] = &Buffer{ID: id}
	case OpDeleteBuffer:
		delete(c.Buffers, cmd.Int(0))
	case OpBindBuffer:
		target, id := cmd.Int(0), cmd.Int(1)
		if id != 0 {
			if _, ok := c.Buffers[id]; !ok {
				return fmt.Errorf("%w: buffer %d", ErrUnknownObject, id)
			}
		}
		switch target {
		case BufTargetArray:
			c.BoundArrayBuf = id
		case BufTargetElemArray:
			c.BoundElemBuf = id
		default:
			return fmt.Errorf("%w: buffer target %#x", ErrBadArguments, target)
		}
	case OpBufferData:
		buf, err := c.boundBuffer(cmd.Int(0))
		if err != nil {
			return err
		}
		buf.Data = append([]byte(nil), cmd.Data...)
		buf.Usage = cmd.Int(1)
		c.Stats.BytesBuffers += int64(len(cmd.Data))
	case OpBufferSubData:
		buf, err := c.boundBuffer(cmd.Int(0))
		if err != nil {
			return err
		}
		off := int(cmd.Int(1))
		if off < 0 || off+len(cmd.Data) > len(buf.Data) {
			return fmt.Errorf("%w: subdata [%d,%d) into %d", ErrBadArguments, off, off+len(cmd.Data), len(buf.Data))
		}
		copy(buf.Data[off:], cmd.Data)
		c.Stats.BytesBuffers += int64(len(cmd.Data))
	case OpCreateShader:
		id := cmd.Int(1)
		if id <= 0 {
			return fmt.Errorf("%w: shader id %d", ErrBadArguments, id)
		}
		c.Shaders[id] = &Shader{ID: id, Type: cmd.Int(0)}
	case OpShaderSource:
		sh, ok := c.Shaders[cmd.Int(0)]
		if !ok {
			return fmt.Errorf("%w: shader %d", ErrUnknownObject, cmd.Int(0))
		}
		sh.Source = string(cmd.Data)
	case OpCompileShader:
		sh, ok := c.Shaders[cmd.Int(0)]
		if !ok {
			return fmt.Errorf("%w: shader %d", ErrUnknownObject, cmd.Int(0))
		}
		sh.Compiled = true
	case OpDeleteShader:
		delete(c.Shaders, cmd.Int(0))
	case OpCreateProgram:
		id := cmd.Int(0)
		if id <= 0 {
			return fmt.Errorf("%w: program id %d", ErrBadArguments, id)
		}
		c.Programs[id] = &Program{ID: id}
	case OpAttachShader:
		p, ok := c.Programs[cmd.Int(0)]
		if !ok {
			return fmt.Errorf("%w: program %d", ErrUnknownObject, cmd.Int(0))
		}
		if _, ok := c.Shaders[cmd.Int(1)]; !ok {
			return fmt.Errorf("%w: shader %d", ErrUnknownObject, cmd.Int(1))
		}
		p.Shaders = append(p.Shaders, cmd.Int(1))
	case OpLinkProgram:
		p, ok := c.Programs[cmd.Int(0)]
		if !ok {
			return fmt.Errorf("%w: program %d", ErrUnknownObject, cmd.Int(0))
		}
		p.Linked = true
	case OpUseProgram:
		id := cmd.Int(0)
		if id != 0 {
			if _, ok := c.Programs[id]; !ok {
				return fmt.Errorf("%w: program %d", ErrUnknownObject, id)
			}
		}
		c.CurrentProgram = id
	case OpDeleteProgram:
		delete(c.Programs, cmd.Int(0))
	case OpUniform1i:
		c.UniformInts[cmd.Int(0)] = cmd.Int(1)
	case OpUniform1f, OpUniform2f, OpUniform4f, OpUniformMatrix4fv:
		loc := cmd.Int(0)
		c.Uniforms[loc] = append([]float32(nil), cmd.Floats...)
	case OpVertexAttribPointer:
		// Ints: index, size, type, normalized, stride, offset, buffer
		idx := cmd.Int(0)
		size := cmd.Int(1)
		if size < 1 || size > 4 {
			return fmt.Errorf("%w: attrib size %d", ErrBadArguments, size)
		}
		b := c.attrib(idx)
		b.Size, b.Type = size, cmd.Int(2)
		b.Stride, b.Offset = cmd.Int(4), cmd.Int(5)
		b.Buffer = cmd.Int(6)
		if b.Buffer == 0 {
			if cmd.DataLen == NoDataLen {
				return fmt.Errorf("%w: client-array attrib with unresolved length", ErrBadArguments)
			}
			b.ClientData = append([]byte(nil), cmd.Data...)
		} else {
			if _, ok := c.Buffers[b.Buffer]; !ok {
				return fmt.Errorf("%w: attrib buffer %d", ErrUnknownObject, b.Buffer)
			}
			b.ClientData = nil
		}
	case OpEnableVertexAttribArray:
		c.attrib(cmd.Int(0)).Enabled = true
	case OpDisableVertexAttribArray:
		c.attrib(cmd.Int(0)).Enabled = false
	case OpDrawArrays, OpDrawElements:
		c.Stats.Draws++
		return c.validateDraw(cmd)
	case OpScissor:
		if cmd.Int(2) < 0 || cmd.Int(3) < 0 {
			return fmt.Errorf("%w: scissor %dx%d", ErrBadArguments, cmd.Int(2), cmd.Int(3))
		}
		c.ScissorX, c.ScissorY = cmd.Int(0), cmd.Int(1)
		c.ScissorW, c.ScissorH = cmd.Int(2), cmd.Int(3)
	case OpFlush, OpFinish, OpSwapBuffers:
		// No state effect; scheduling semantics live in the runtime.
	default:
		return fmt.Errorf("%w: %v", ErrUnknownOp, cmd.Op)
	}
	return nil
}

func (c *Context) boundBuffer(target int32) (*Buffer, error) {
	var id int32
	switch target {
	case BufTargetArray:
		id = c.BoundArrayBuf
	case BufTargetElemArray:
		id = c.BoundElemBuf
	default:
		return nil, fmt.Errorf("%w: buffer target %#x", ErrBadArguments, target)
	}
	buf, ok := c.Buffers[id]
	if !ok {
		return nil, fmt.Errorf("%w: no buffer bound to %#x", ErrUnknownObject, target)
	}
	return buf, nil
}

func (c *Context) attrib(idx int32) *AttribBinding {
	b, ok := c.Attribs[idx]
	if !ok {
		b = &AttribBinding{}
		c.Attribs[idx] = b
	}
	return b
}

func (c *Context) validateDraw(cmd Command) error {
	if c.CurrentProgram == 0 {
		return ErrNoProgram
	}
	pos, ok := c.Attribs[LocPosition]
	if !ok || !pos.Enabled {
		return ErrMissingAttrib
	}
	return nil
}

// AttribFloats extracts count vertices (starting at first) for the
// given attribute binding as packed float32 components. It returns an
// error when the binding's backing store is too short — the condition
// the deferred-serialization logic of §IV-B exists to avoid.
func (c *Context) AttribFloats(b *AttribBinding, first, count int) ([]float32, error) {
	return c.appendAttribFloats(nil, b, first, count)
}

// appendAttribFloats is AttribFloats appending to dst, which a draw
// passes its reused scratch through.
func (c *Context) appendAttribFloats(dst []float32, b *AttribBinding, first, count int) ([]float32, error) {
	if b == nil {
		return nil, ErrBadArguments
	}
	src := b.ClientData
	off := 0
	if b.Buffer != 0 {
		buf, ok := c.Buffers[b.Buffer]
		if !ok {
			return nil, fmt.Errorf("%w: attrib buffer %d", ErrUnknownObject, b.Buffer)
		}
		src = buf.Data
		off = int(b.Offset)
	}
	stride := int(b.Stride)
	vertexBytes := int(b.Size) * 4
	if stride == 0 {
		stride = vertexBytes
	}
	if first < 0 || count < 0 || stride <= 0 {
		return nil, fmt.Errorf("%w: first=%d count=%d stride=%d", ErrBadArguments, first, count, stride)
	}
	if count == 0 {
		return dst, nil
	}
	// Bound the request by the backing store BEFORE allocating: a
	// hostile draw count must fail cheaply, not reserve count*size
	// floats (a real driver raises GL_INVALID_OPERATION here).
	lastBase := off + (first+count-1)*stride
	if lastBase < 0 || lastBase+vertexBytes > len(src) {
		return nil, fmt.Errorf("%w: %d vertices need %d bytes, have %d",
			ErrOutOfRangeDraw, first+count, lastBase+vertexBytes, len(src))
	}
	out := slices.Grow(dst, count*int(b.Size))
	for v := first; v < first+count; v++ {
		base := off + v*stride
		if base < 0 || base+vertexBytes > len(src) {
			return nil, fmt.Errorf("%w: vertex %d needs [%d,%d) of %d bytes",
				ErrOutOfRangeDraw, v, base, base+vertexBytes, len(src))
		}
		for k := 0; k < int(b.Size); k++ {
			out = append(out, f32FromBytes(src[base+k*4:]))
		}
	}
	return out, nil
}

// Snapshot summarizes durable state for consistency checks between
// replicated contexts. Two contexts that applied the same state-mutating
// stream must produce identical snapshots.
func (c *Context) Snapshot() StateSnapshot {
	s := StateSnapshot{
		Textures:       len(c.Textures),
		Buffers:        len(c.Buffers),
		Programs:       len(c.Programs),
		Shaders:        len(c.Shaders),
		CurrentProgram: c.CurrentProgram,
		TexelBytes:     0,
		BufferBytes:    0,
		UniformCount:   len(c.Uniforms),
	}
	for _, t := range c.Textures {
		s.TexelBytes += int64(len(t.Pixels))
	}
	for _, b := range c.Buffers {
		s.BufferBytes += int64(len(b.Data))
	}
	return s
}

// StateSnapshot is a compact fingerprint of durable context state.
type StateSnapshot struct {
	Textures       int
	Buffers        int
	Programs       int
	Shaders        int
	CurrentProgram int32
	TexelBytes     int64
	BufferBytes    int64
	UniformCount   int
}

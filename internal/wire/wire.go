// Package wire defines the request/response envelope and the binary
// frame codec the TCP transport exchanges. Every message type that
// crosses the network implements Message and is bound to a Tag by its
// package's RegisterWire (wire, pastry, past); DESIGN.md §16 gives the
// frame layout and the primitive encodings.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"past/internal/id"
	"past/internal/obs"
)

// Request is one RPC from Src carrying an opaque protocol message.
type Request struct {
	Src id.Node
	Msg any
	// TC is the request's trace context (zero: untraced). The transport
	// stamps it from the caller's context; the receiving side hands it
	// to endpoints that implement transport.TracedEndpoint, which is how
	// a `pastctl trace` request starts hop collection on a remote node.
	TC obs.TraceContext
}

// ErrCode classifies a failed Response so the caller can restore the
// sentinel the handler returned without reading the error text.
type ErrCode uint8

// The error codes. The serving transport picks one with errors.Is; the
// calling transport maps it back onto the netsim sentinel. CodeApp is
// every other handler error and stays opaque.
const (
	CodeNone ErrCode = iota
	CodeApp
	CodeNodeDown
	CodeUnknownNode
	CodeTimeout
	CodeOverloaded
	codeEnd
)

// Response answers a Request. A Code other than CodeNone means the
// remote handler failed with the text in Err; Msg is nil in that case.
type Response struct {
	Msg  any
	Code ErrCode
	Err  string
}

// Directory entries are exchanged by the transport's built-in gossip so
// joining nodes learn id -> address mappings and emulated coordinates.

// DirEntry announces one node's address and position.
type DirEntry struct {
	ID   id.Node
	Addr string
	X, Y float64
}

// DirQuery asks a node for its full directory.
type DirQuery struct{}

// DirReply carries a directory snapshot.
type DirReply struct {
	Entries []DirEntry
}

// RegisterWire registers the envelope-level types. Like its pastry and
// past counterparts it may be called any number of times.
func RegisterWire() {
	Register[DirEntry](1)
	Register[DirQuery](2)
	Register[DirReply](3)
}

func (m *DirEntry) AppendWire(b []byte) []byte {
	b = AppendString(append(b, m.ID[:]...), m.Addr)
	return AppendFloat64(AppendFloat64(b, m.X), m.Y)
}

func (m *DirEntry) DecodeWire(r *Reader) error {
	m.ID, m.Addr, m.X, m.Y = r.Node(), r.String(), r.Float64(), r.Float64()
	return r.Err()
}

func (*DirQuery) AppendWire(b []byte) []byte { return b }
func (*DirQuery) DecodeWire(*Reader) error   { return nil }

func (m *DirReply) AppendWire(b []byte) []byte {
	b = AppendUvarint(b, uint64(len(m.Entries)))
	for i := range m.Entries {
		b = m.Entries[i].AppendWire(b)
	}
	return b
}

func (m *DirReply) DecodeWire(r *Reader) error {
	const entryMinSize = 16 + 1 + 8 + 8
	if n := r.Len(entryMinSize); n > 0 {
		m.Entries = make([]DirEntry, n)
		for i := range m.Entries {
			m.Entries[i].DecodeWire(r) // sticky: reported by r.Err below
		}
	}
	return r.Err()
}

// Frame layout. Every frame is
//
//	len u32 big-endian | version u8 | kind u8 | body
//
// where len counts the bytes after itself. A request body is
// src[16] | trace context | message; a response body is code u8 then
// the message (CodeNone) or the error text (any other code).
const (
	// Version is the frame format version. A peer that speaks another
	// one is refused at the first frame: all members of a fleet must be
	// the same build.
	Version = 2

	// MaxFrame caps the length a frame may claim.
	MaxFrame = 1 << 30

	headerLen    = 6
	kindRequest  = 1
	kindResponse = 2

	// readBufSize lets a frame of a few KiB (a routed lookup and its
	// 4 KiB reply) arrive in one read system call and be decoded where
	// it lies.
	readBufSize = 8 << 10

	// bodyChunk is how much body is allocated ahead of the bytes that
	// have actually arrived, so a lying length prefix costs at most one
	// chunk before the stream runs dry.
	bodyChunk = 1 << 20
)

// encBufs recycles encode buffers. Receive buffers are not pooled but
// belong to a Codec: its read buffer and its request body buffer.
var encBufs = sync.Pool{New: func() any { return new([]byte) }}

// Codec frames requests and responses on a stream. A Codec is not safe
// for concurrent use; the transport serializes access.
type Codec struct {
	w  io.Writer
	br *bufio.Reader
	rd Reader // reused per frame so decoding allocates no Reader
	// held is how many bytes of br the frame being decoded occupies
	// (0: the frame is in its own buffer); finish discards them.
	held int
	// body holds a request frame too large for br, up to bodyChunk
	// bytes, and is reused by the next such frame.
	body []byte
}

// NewCodec wraps a connection.
func NewCodec(rw io.ReadWriter) *Codec {
	return &Codec{w: rw, br: bufio.NewReaderSize(rw, readBufSize)}
}

// WriteRequest sends a request as one frame in one Write. The codec
// does not retain r.
func (c *Codec) WriteRequest(r *Request) error { return c.writeFrame(kindRequest, r, nil) }

// WriteResponse sends a response as one frame in one Write. The codec
// does not retain r.
func (c *Codec) WriteResponse(r *Response) error { return c.writeFrame(kindResponse, nil, r) }

func (r *Request) appendBody(b []byte) []byte {
	b = AppendTraceContext(append(b, r.Src[:]...), r.TC)
	return AppendMessage(b, r.Msg)
}

func (r *Response) appendBody(b []byte) []byte {
	code := r.Code
	if code == CodeNone && r.Err != "" {
		code = CodeApp
	}
	if b = append(b, byte(code)); code == CodeNone {
		return AppendMessage(b, r.Msg)
	}
	return AppendString(b, r.Err)
}

// writeFrame encodes one envelope, req or resp, into a pooled buffer
// and writes it. The envelopes are concrete pointers, not an interface,
// so that neither escapes and callers keep theirs on the stack. An
// unencodable message is reported before any byte is written, so the
// stream stays usable.
func (c *Codec) writeFrame(kind byte, req *Request, resp *Response) (err error) {
	bp := encBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= bodyChunk { // do not let one huge file pin memory in the pool
			encBufs.Put(bp)
		}
		if p := recover(); p != nil {
			ee, ok := p.(encodeError)
			if !ok {
				panic(p)
			}
			err = ee.err
		}
	}()
	b := append((*bp)[:0], 0, 0, 0, 0, Version, kind)
	if req != nil {
		b = req.appendBody(b)
	} else {
		b = resp.appendBody(b)
	}
	*bp = b[:0]
	if len(b)-4 > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", len(b)-4, MaxFrame)
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	if _, err := c.w.Write(b); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadRequest receives a request. The request is borrowed: its byte
// strings (Reader.Bytes) are views of buffers the next ReadRequest
// overwrites, so whoever keeps one beyond that copies it. It returns
// io.EOF bare when the stream ends cleanly between frames.
func (c *Codec) ReadRequest() (Request, error) {
	r, err := c.readFrame(kindRequest)
	if err != nil {
		return Request{}, err
	}
	req := Request{Src: r.Node(), TC: r.TraceContext()}
	req.Msg = r.Message()
	if err := c.finish(); err != nil {
		return Request{}, fmt.Errorf("wire: decode request: %w", err)
	}
	return req, nil
}

// ReadResponse receives a response.
func (c *Codec) ReadResponse() (Response, error) {
	r, err := c.readFrame(kindResponse)
	if err != nil {
		return Response{}, fmt.Errorf("wire: read response: %w", err)
	}
	resp := Response{Code: ErrCode(r.Byte())}
	switch {
	case resp.Code == CodeNone:
		resp.Msg = r.Message()
	case resp.Code < codeEnd:
		resp.Err = r.String()
	default:
		r.fail(fmt.Errorf("wire: unknown error code %d", resp.Code))
	}
	if err := c.finish(); err != nil {
		return Response{}, fmt.Errorf("wire: decode response: %w", err)
	}
	return resp, nil
}

// readFrame reads one frame of the wanted kind and points the codec's
// Reader at its body. A frame that fits the read buffer is decoded
// where it lies. A larger request of up to bodyChunk bytes is read into
// the codec's body buffer, any other frame into a fresh one. A
// request's byte strings are borrowed views wherever its body lies; a
// response's are copied out of the read buffer, or views of the fresh
// buffer its message owns.
func (c *Codec) readFrame(kind byte) (*Reader, error) {
	hdr, err := c.br.Peek(headerLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	switch {
	case hdr[4] != Version:
		return nil, fmt.Errorf("wire: peer sent frame version %d, this build speaks %d: every member of a fleet must run the same build", hdr[4], Version)
	case hdr[5] != kind:
		return nil, fmt.Errorf("wire: frame kind %d where %d was expected", hdr[5], kind)
	case n < 2 || n > MaxFrame:
		return nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	if size := 4 + int(n); size <= c.br.Size() {
		frame, err := c.br.Peek(size)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		c.rd, c.held = Reader{buf: frame[headerLen:], copyOut: kind == kindResponse, borrowed: kind == kindRequest}, size
		return &c.rd, nil
	}
	c.br.Discard(headerLen) // cannot fail: Peek buffered these bytes
	var body []byte
	if size := int(n) - 2; kind == kindRequest && size <= bodyChunk {
		if cap(c.body) < size {
			c.body = make([]byte, size)
		}
		body = c.body[:size]
		_, err = io.ReadFull(c.br, body)
	} else {
		body, err = readBody(c.br, size)
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	c.rd = Reader{buf: body, borrowed: kind == kindRequest}
	return &c.rd, nil
}

// finish reports the frame's decoding outcome, rejecting bytes left
// over after the last field, and drops the codec's hold on the body.
func (c *Codec) finish() error {
	err, left := c.rd.err, len(c.rd.buf)
	c.rd = Reader{}
	if c.held > 0 {
		c.br.Discard(c.held) // cannot fail: readFrame peeked these bytes
		c.held = 0
	}
	if err == nil && left > 0 {
		err = fmt.Errorf("wire: %d trailing bytes in frame", left)
	}
	return err
}

// readBody reads n bytes into a new buffer that grows, chunk by chunk,
// only as fast as the stream delivers.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, bodyChunk))
	for got := 0; ; {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return nil, err
		}
		if got = len(buf); got == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-got, got))...)
	}
}

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"past/internal/id"
	"past/internal/obs"
)

// Message is implemented by every type that crosses the wire. AppendWire
// appends the message body to b; DecodeWire reads the same fields, in
// the same order, from r. A []byte field a decoder takes with
// Reader.Bytes is a response's own, but only borrowed in a request
// (Reader.Borrowed).
type Message interface {
	AppendWire(b []byte) []byte
	DecodeWire(r *Reader) error
}

// Tag identifies a registered message type inside a frame. Tags are
// part of the wire format: never renumber or reuse one. Tag 0 is the
// nil message.
type Tag uint8

// maxDepth bounds how deeply messages nest (envelope -> RouteRequest ->
// payload is 2), so a hostile frame cannot recurse the decoder off the
// stack.
const maxDepth = 8

// registry is the immutable tag table decoders and encoders read
// without locking; Register replaces it copy-on-write.
type registry struct {
	byTag  [256]func() Message
	byType map[reflect.Type]Tag
}

var (
	regMu sync.Mutex
	reg   atomic.Pointer[registry]
)

// Register binds tag to the message type *T. Registering the same pair
// again is a no-op; a tag or type bound to something else panics, since
// two builds would then disagree about what a frame means.
func Register[T any, P interface {
	*T
	Message
}](tag Tag) {
	typ := reflect.TypeOf(P(nil))
	regMu.Lock()
	defer regMu.Unlock()
	next := &registry{byType: map[reflect.Type]Tag{typ: tag}}
	if cur := reg.Load(); cur != nil {
		if old, ok := cur.byType[typ]; ok && old == tag {
			return
		}
		next.byTag = cur.byTag
		for t, g := range cur.byType {
			next.byType[t] = g
		}
	}
	if next.byType[typ] != tag || next.byTag[tag] != nil || tag == 0 {
		panic(fmt.Sprintf("wire: conflicting registration of tag %d for %v", tag, typ))
	}
	next.byTag[tag] = func() Message { return P(new(T)) }
	reg.Store(next)
}

// Registered returns a new zero message for every registered tag; the
// codec tests enumerate the registry with it.
func Registered() map[Tag]Message {
	out := map[Tag]Message{}
	if cur := reg.Load(); cur != nil {
		for tag, mk := range cur.byTag {
			if mk != nil {
				out[Tag(tag)] = mk()
			}
		}
	}
	return out
}

// encodeError is the panic value AppendMessage raises for a value that
// cannot be encoded; Codec recovers it into an ordinary error, so the
// AppendWire methods need no error plumbing.
type encodeError struct{ err error }

// AppendMessage appends m as tag + body; nil is the single byte 0. It
// panics with an encodeError, which Codec's writers recover, when m's
// type was never registered.
func AppendMessage(b []byte, m any) []byte {
	if m == nil {
		return append(b, 0)
	}
	msg, ok := m.(Message)
	var tag Tag
	if cur := reg.Load(); ok && cur != nil {
		tag = cur.byType[reflect.TypeOf(m)]
	}
	if tag == 0 {
		panic(encodeError{fmt.Errorf("wire: type %T is not a registered message", m)})
	}
	return msg.AppendWire(append(b, byte(tag)))
}

// AppendUvarint appends v in base-128 varint form.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends a signed integer as a zig-zag varint.
func AppendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends one byte, 0 or 1. Pointer fields use it as their
// presence byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFixed64 appends v as 8 little-endian bytes, for values that are
// uniformly random (trace ids, salts) and so gain nothing from a varint.
func AppendFixed64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendFloat64 appends the IEEE-754 bits of v.
func AppendFloat64(b []byte, v float64) []byte { return AppendFixed64(b, math.Float64bits(v)) }

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(b, p []byte) []byte { return append(AppendUvarint(b, uint64(len(p))), p...) }

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte { return append(AppendUvarint(b, uint64(len(s))), s...) }

// AppendNodes appends a counted list of raw 16-byte node ids.
func AppendNodes(b []byte, ns []id.Node) []byte {
	b = AppendUvarint(b, uint64(len(ns)))
	for i := range ns {
		b = append(b, ns[i][:]...)
	}
	return b
}

// AppendFiles appends a counted list of raw 20-byte file ids.
func AppendFiles(b []byte, fs []id.File) []byte {
	b = AppendUvarint(b, uint64(len(fs)))
	for i := range fs {
		b = append(b, fs[i][:]...)
	}
	return b
}

// AppendTraceContext appends a trace context: the zero value (the
// untraced common case) is one byte.
func AppendTraceContext(b []byte, tc obs.TraceContext) []byte {
	if tc == (obs.TraceContext{}) {
		return append(b, 0)
	}
	flags := byte(1)
	if tc.Sampled {
		flags |= 2
	}
	return append(AppendFixed64(append(b, flags), tc.ID), tc.Budget)
}

// AppendHops appends a counted list of hop records.
func AppendHops(b []byte, hs []obs.HopRecord) []byte {
	b = AppendUvarint(b, uint64(len(hs)))
	for i := range hs {
		h := &hs[i]
		b = append(b, h.From[:]...)
		b = append(b, h.To[:]...)
		b = AppendString(b, h.Choice)
		b = AppendInt(b, int64(h.Prefix))
		b = AppendFloat64(b, h.Distance)
		b = AppendInt(b, h.RPCNanos)
		b = AppendBool(b, h.Failed)
	}
	return b
}

// AppendSnapshot appends an observability snapshot, counters in name
// order so equal snapshots encode to equal bytes.
func AppendSnapshot(b []byte, s obs.Snapshot) []byte {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	b = AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = AppendInt(AppendString(b, name), s.Counters[name])
	}
	b = AppendUvarint(b, uint64(len(s.RPCLat)))
	for _, v := range s.RPCLat {
		b = AppendInt(b, v)
	}
	return b
}

// errTruncated reports a body that ended before its fields did.
var errTruncated = errors.New("wire: truncated message")

// Reader decodes one frame body. Errors are sticky: after the first
// failure every accessor returns its zero value and Err reports the
// cause, so a DecodeWire method reads its fields unconditionally and
// returns r.Err(). Every count and length is checked against the bytes
// remaining before anything is allocated.
type Reader struct {
	buf   []byte
	err   error
	depth int
	// copyOut is set while buf is a response in a connection's reused
	// read buffer: Bytes then copies, since a reply outlives the next
	// frame.
	copyOut bool
	// borrowed is set while buf is a request's body (see Borrowed).
	borrowed bool
}

// NewReader returns a Reader over body, for decoding bytes that did not
// arrive in a frame (the storage engine's on-disk records).
func NewReader(body []byte) *Reader { return &Reader{buf: body} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

// fail records err as the decoding failure unless one is already set.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
		r.buf = nil
	}
}

// take consumes n bytes, or fails and returns nil.
func (r *Reader) take(n int) []byte {
	if n > len(r.buf) {
		r.fail(errTruncated)
		return nil
	}
	p := r.buf[:n:n]
	r.buf = r.buf[n:]
	return p
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads a 0/1 byte; any other value is an error.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.fail(fmt.Errorf("wire: boolean byte %#x", v))
	}
	return v == 1
}

// Uvarint reads a base-128 varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		if n < 0 {
			r.fail(errors.New("wire: varint overflows 64 bits"))
		}
		r.fail(errTruncated)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Uint32 reads a varint that must fit 32 bits.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.fail(fmt.Errorf("wire: %d overflows 32 bits", v))
		return 0
	}
	return uint32(v)
}

// Int64 reads a zig-zag varint.
func (r *Reader) Int64() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads a zig-zag varint that must fit the platform's int.
func (r *Reader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("wire: %d overflows int", v))
		return 0
	}
	return int(v)
}

// Fixed64 reads 8 little-endian bytes.
func (r *Reader) Fixed64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Float64 reads IEEE-754 bits.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Fixed64()) }

// Len reads an element count and checks that count elements of at least
// elemSize encoded bytes each can still follow, so a lying count never
// sizes an allocation.
func (r *Reader) Len(elemSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)/elemSize) {
		r.fail(errTruncated)
		return 0
	}
	return int(n)
}

// view reads a length-prefixed byte string as a view of buf; a zero
// length yields nil.
func (r *Reader) view() []byte {
	n := r.Len(1)
	if n == 0 {
		return nil
	}
	return r.take(n)
}

// Borrowed reports whether the frame is a request, whose byte strings
// (Bytes) are borrowed: views valid only until the request's handler
// has returned, since the connection may reuse their memory for its
// next frame. A decoder records it in the message when a node may keep
// the payload, so that the keeper copies what it keeps and nothing else
// is copied.
func (r *Reader) Borrowed() bool { return r.borrowed }

// Bytes reads a length-prefixed byte string for a payload (file
// content, fragments). In a request it is a borrowed view of the frame
// (Borrowed); in a response that fits the connection's read buffer, an
// exact-size copy; over a buffer the message owns — a larger response,
// or NewReader's body — a view that keeps all of the buffer reachable.
// Small fields that outlive their message take CopyBytes. A zero length
// yields nil.
func (r *Reader) Bytes() []byte {
	p := r.view()
	if !r.copyOut || p == nil {
		return p
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// CopyBytes reads a length-prefixed byte string into its own allocation.
func (r *Reader) CopyBytes() []byte { return append([]byte(nil), r.view()...) }

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.view()) }

// Node reads a raw 16-byte node id.
func (r *Reader) Node() (n id.Node) {
	copy(n[:], r.take(len(n)))
	return n
}

// File reads a raw 20-byte file id.
func (r *Reader) File() (f id.File) {
	copy(f[:], r.take(len(f)))
	return f
}

// Nodes reads a counted list of node ids; empty yields nil.
func (r *Reader) Nodes() []id.Node {
	n := r.Len(len(id.Node{}))
	if n == 0 {
		return nil
	}
	out := make([]id.Node, n)
	for i := range out {
		out[i] = r.Node()
	}
	return out
}

// Files reads a counted list of file ids; empty yields nil.
func (r *Reader) Files() []id.File {
	n := r.Len(len(id.File{}))
	if n == 0 {
		return nil
	}
	out := make([]id.File, n)
	for i := range out {
		out[i] = r.File()
	}
	return out
}

// Message reads tag + body into a new value of the registered type; the
// nil tag yields nil.
func (r *Reader) Message() any {
	tag := r.Byte()
	if tag == 0 || r.err != nil {
		return nil
	}
	var mk func() Message
	if cur := reg.Load(); cur != nil {
		mk = cur.byTag[tag]
	}
	if mk == nil {
		r.fail(fmt.Errorf("wire: unknown message tag %d", tag))
		return nil
	}
	if r.depth++; r.depth > maxDepth {
		r.fail(errors.New("wire: messages nested too deeply"))
		return nil
	}
	m := mk()
	if err := m.DecodeWire(r); err != nil {
		r.fail(err)
		return nil
	}
	r.depth--
	return m
}

// TraceContext reads a trace context.
func (r *Reader) TraceContext() (tc obs.TraceContext) {
	flags := r.Byte()
	if flags == 0 {
		return tc
	}
	if flags&^3 != 0 || flags&1 == 0 {
		r.fail(fmt.Errorf("wire: trace context flags %#x", flags))
		return tc
	}
	tc.Sampled = flags&2 != 0
	tc.ID = r.Fixed64()
	tc.Budget = r.Byte()
	return tc
}

// hopMinSize is the smallest encoded hop record: two ids, an empty
// choice, prefix, distance, rpc time and the failed flag.
const hopMinSize = 16 + 16 + 1 + 1 + 8 + 1 + 1

// Hops reads a counted list of hop records; empty yields nil.
func (r *Reader) Hops() []obs.HopRecord {
	n := r.Len(hopMinSize)
	if n == 0 {
		return nil
	}
	out := make([]obs.HopRecord, n)
	for i := range out {
		h := &out[i]
		h.From, h.To = r.Node(), r.Node()
		h.Choice = r.String()
		h.Prefix = r.Int()
		h.Distance = r.Float64()
		h.RPCNanos = r.Int64()
		h.Failed = r.Bool()
	}
	return out
}

// Snapshot reads an observability snapshot.
func (r *Reader) Snapshot() (s obs.Snapshot) {
	if n := r.Len(2); n > 0 {
		s.Counters = make(map[string]int64, n)
		for i := 0; i < n; i++ {
			name := r.String()
			s.Counters[name] = r.Int64()
		}
	}
	if n := r.Len(1); n > 0 {
		s.RPCLat = make([]int64, n)
		for i := range s.RPCLat {
			s.RPCLat[i] = r.Int64()
		}
	}
	return s
}

// AppendPtr appends a pointer field: a presence byte, then the body
// when p is not nil.
func AppendPtr[T any, P interface {
	*T
	Message
}](b []byte, p P) []byte {
	if p == nil {
		return append(b, 0)
	}
	return p.AppendWire(append(b, 1))
}

// ReadPtr reads a pointer field written by AppendPtr.
func ReadPtr[T any, P interface {
	*T
	Message
}](r *Reader) P {
	if !r.Bool() {
		return nil
	}
	p := P(new(T))
	if err := p.DecodeWire(r); err != nil {
		r.fail(err)
		return nil
	}
	return p
}

package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"past/internal/id"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/wire"
)

func register() {
	wire.RegisterWire()
	past.RegisterWire()
}

// stream adapts a byte source to the io.ReadWriter NewCodec wants.
type stream struct {
	io.Reader
	io.Writer
}

func decoder(frame []byte) *wire.Codec {
	return wire.NewCodec(stream{bytes.NewReader(frame), io.Discard})
}

// requestFrame encodes one request and returns the frame's bytes.
func requestFrame(t testing.TB, req *wire.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.NewCodec(&buf).WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCodecRequestResponseRoundTrip(t *testing.T) {
	register()
	var buf bytes.Buffer
	c := wire.NewCodec(&buf)

	src := id.NodeFromUint64(42)
	tc := obs.TraceContext{ID: 7, Sampled: true, Budget: 9}
	if err := c.WriteRequest(&wire.Request{Src: src, Msg: &pastry.Ping{}, TC: tc}); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != src || got.TC != tc {
		t.Fatalf("envelope = %+v", got)
	}
	if _, ok := got.Msg.(*pastry.Ping); !ok {
		t.Fatalf("msg = %T", got.Msg)
	}

	if err := c.WriteResponse(&wire.Response{Msg: &pastry.Pong{}}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.Msg.(*pastry.Pong); !ok || resp.Err != "" || resp.Code != wire.CodeNone {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestCodecCarriesRoutedPayloads(t *testing.T) {
	register()
	var buf bytes.Buffer
	c := wire.NewCodec(&buf)

	f := id.NewFile("x", nil, 1)
	rr := &pastry.RouteRequest{
		Key:     f.Key(),
		Payload: &past.LookupMsg{File: f},
		Hops:    2,
	}
	if err := c.WriteRequest(&wire.Request{Src: id.NodeFromUint64(1), Msg: rr}); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Msg, rr) {
		t.Fatalf("decoded %+v, want %+v", got.Msg, rr)
	}
}

func TestCodecErrorResponse(t *testing.T) {
	register()
	for _, tc := range []struct {
		in   wire.Response
		want wire.ErrCode
	}{
		{wire.Response{Err: "boom"}, wire.CodeApp}, // a bare text is an application error
		{wire.Response{Code: wire.CodeOverloaded, Err: "boom"}, wire.CodeOverloaded},
		{wire.Response{Code: wire.CodeApp}, wire.CodeApp}, // an empty text is still a failure
	} {
		var buf bytes.Buffer
		c := wire.NewCodec(&buf)
		if err := c.WriteResponse(&tc.in); err != nil {
			t.Fatal(err)
		}
		resp, err := c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != tc.in.Err || resp.Code != tc.want || resp.Msg != nil {
			t.Fatalf("%+v decoded as %+v", tc.in, resp)
		}
	}
}

func TestCodecOverSocketPair(t *testing.T) {
	register()
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	done := make(chan error, 1)
	go func() {
		sc := wire.NewCodec(server)
		req, err := sc.ReadRequest()
		if err != nil {
			done <- err
			return
		}
		if _, ok := req.Msg.(*wire.DirQuery); !ok {
			done <- errors.New("request is not a DirQuery")
			return
		}
		done <- sc.WriteResponse(&wire.Response{Msg: &wire.DirReply{
			Entries: []wire.DirEntry{{ID: id.NodeFromUint64(9), Addr: "a:1", X: 1, Y: 2}},
		}})
	}()

	cc := wire.NewCodec(client)
	if err := cc.WriteRequest(&wire.Request{Src: id.NodeFromUint64(5), Msg: &wire.DirQuery{}}); err != nil {
		t.Fatal(err)
	}
	resp, err := cc.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	dr := resp.Msg.(*wire.DirReply)
	if len(dr.Entries) != 1 || dr.Entries[0].Addr != "a:1" || dr.Entries[0].Y != 2 {
		t.Fatalf("entries = %+v", dr.Entries)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestOneWritePerFrame: the transport's syscall budget rests on a frame
// leaving in a single Write.
func TestOneWritePerFrame(t *testing.T) {
	register()
	var w countingWriter
	c := wire.NewCodec(stream{strings.NewReader(""), &w})
	msg := &past.ClientInsert{Name: "n", Content: make([]byte, 64<<10)}
	if err := c.WriteRequest(&wire.Request{Msg: msg}); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 || w.bytes < 64<<10 {
		t.Fatalf("%d writes of %d bytes in total; want 1", w.writes, w.bytes)
	}
}

type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestShortReads: a frame that trickles in a byte at a time decodes the
// same as one that arrives whole.
func TestShortReads(t *testing.T) {
	register()
	f := id.NewFile("x", nil, 1)
	want := &pastry.RouteRequest{Key: f.Key(), Payload: &past.InsertMsg{File: f, Size: 3, Content: []byte("abc"), K: 2}}
	frame := requestFrame(t, &wire.Request{Src: id.NodeFromUint64(3), Msg: want})
	two := append(append([]byte(nil), frame...), frame...)
	c := wire.NewCodec(stream{iotest.OneByteReader(bytes.NewReader(two)), io.Discard})
	for i := 0; i < 2; i++ {
		got, err := c.ReadRequest()
		if err != nil {
			t.Fatal(err)
		}
		if again := requestFrame(t, &got); !bytes.Equal(again, frame) {
			t.Fatalf("frame %d decoded as %+v", i, got.Msg)
		}
	}
	if _, err := c.ReadRequest(); err != io.EOF {
		t.Fatalf("end of stream: %v; want io.EOF", err)
	}
}

// repeatReader serves the same bytes over and over, so a codec can
// decode one frame any number of times without the source allocating.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestPayloadOwnership pins who owns a decoded payload, in three
// regimes. A request is borrowed: its payload is a view of the
// connection's read buffer (a frame that fits it) or of the
// connection's reused body buffer (a larger one), valid until the next
// ReadRequest, so decoding it copies nothing and a keeper copies what
// it keeps. A response is owned: a reply outlives its pooled
// connection, so its payload is copied out of the read buffer, or is a
// view of a fresh buffer its message owns.
func TestPayloadOwnership(t *testing.T) {
	register()
	fills := []byte{0xAB, 0xCD, 0xEF}
	t.Run("4KiB-request-borrowed", func(t *testing.T) {
		var frames []byte
		for _, fill := range fills {
			content := bytes.Repeat([]byte{fill}, 4<<10)
			frames = append(frames, requestFrame(t, &wire.Request{Msg: &past.ClientInsert{Content: content}})...)
		}
		c := decoder(frames)
		var kept [][]byte
		for _, fill := range fills {
			req, err := c.ReadRequest()
			if err != nil {
				t.Fatal(err)
			}
			content := req.Msg.(*past.ClientInsert).Content
			if !bytes.Equal(content, bytes.Repeat([]byte{fill}, 4<<10)) {
				t.Fatalf("payload %#x decoded wrong", fill)
			}
			kept = append(kept, bytes.Clone(content)) // the keeper's copy
		}
		for i, fill := range fills {
			if !bytes.Equal(kept[i], bytes.Repeat([]byte{fill}, 4<<10)) {
				t.Fatalf("the copy of payload %d changed when later frames were decoded", i)
			}
		}
		frame := requestFrame(t, &wire.Request{Msg: &past.ClientInsert{Content: make([]byte, 4<<10)}})
		c = wire.NewCodec(stream{&repeatReader{frame: frame}, io.Discard})
		// The message: a copied payload would be a second allocation.
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.ReadRequest(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Fatalf("decoding a 4 KiB request made %v allocations; want 1", allocs)
		}
	})
	t.Run("64KiB-request-borrowed", func(t *testing.T) {
		content := bytes.Repeat([]byte{0xAB}, 64<<10)
		frame := requestFrame(t, &wire.Request{Msg: &past.ClientInsert{Content: content}})
		c := wire.NewCodec(stream{&repeatReader{frame: frame}, io.Discard})
		var first []byte
		allocs := testing.AllocsPerRun(20, func() {
			req, err := c.ReadRequest()
			if err != nil {
				t.Fatal(err)
			}
			got := req.Msg.(*past.ClientInsert).Content
			if !bytes.Equal(got, content) {
				t.Fatal("content corrupted")
			}
			if first == nil {
				first = got
			} else if &got[0] != &first[0] {
				t.Fatal("a large request was not read into the connection's reused body buffer")
			}
		})
		// The message: a body buffer per frame would be a second
		// allocation, a copied payload another.
		if allocs != 1 {
			t.Fatalf("decoding a 64 KiB request made %v allocations; want 1", allocs)
		}
	})
	t.Run("responses-owned", func(t *testing.T) {
		for _, size := range []int{4 << 10, 64 << 10} {
			var frames []byte
			for _, fill := range fills {
				var buf bytes.Buffer
				reply := &past.ClientLookupReply{Found: true, Content: bytes.Repeat([]byte{fill}, size)}
				if err := wire.NewCodec(&buf).WriteResponse(&wire.Response{Msg: reply}); err != nil {
					t.Fatal(err)
				}
				frames = append(frames, buf.Bytes()...)
			}
			c := decoder(frames)
			var kept [][]byte
			for range fills {
				resp, err := c.ReadResponse()
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, resp.Msg.(*past.ClientLookupReply).Content)
			}
			for i, fill := range fills {
				if !bytes.Equal(kept[i], bytes.Repeat([]byte{fill}, size)) {
					t.Fatalf("%d-byte reply %d changed when later frames were decoded on its codec", size, i)
				}
			}
		}
	})
}

// TestAllocBudgetDecode: decoding a request that fits the read buffer
// allocates its message and its strings and nothing else — no
// envelope, no frame buffer and no payload, which is borrowed.
func TestAllocBudgetDecode(t *testing.T) {
	register()
	f := id.NewFile("x", nil, 1)
	for _, tc := range []struct {
		name string
		msg  any
		want float64
	}{
		{"ping", &pastry.Ping{}, 0}, // a zero-size message allocates nothing
		{"routed-lookup", &pastry.RouteRequest{Key: f.Key(), Payload: &past.LookupMsg{File: f}, Hops: 1}, 2},
		{"4KiB-insert", &past.ClientInsert{Name: "notes.txt", Content: make([]byte, 4<<10)}, 2},
	} {
		frame := requestFrame(t, &wire.Request{Src: id.NodeFromUint64(1), Msg: tc.msg})
		c := wire.NewCodec(stream{&repeatReader{frame: frame}, io.Discard})
		var req wire.Request
		got := testing.AllocsPerRun(100, func() {
			var err error
			if req, err = c.ReadRequest(); err != nil {
				t.Fatal(err)
			}
		})
		if again := requestFrame(t, &req); !bytes.Equal(again, frame) {
			t.Fatalf("%s decoded as %+v", tc.name, req.Msg)
		}
		if got != tc.want {
			t.Errorf("%s: decoding made %v allocations; want %v", tc.name, got, tc.want)
		}
	}
}

func TestUnregisteredMessageIsAnErrorNotAPanic(t *testing.T) {
	register()
	var buf bytes.Buffer
	c := wire.NewCodec(&buf)
	type stranger struct{}
	if err := c.WriteRequest(&wire.Request{Msg: &stranger{}}); err == nil {
		t.Fatal("an unregistered top-level message was encoded")
	}
	nested := &pastry.RouteRequest{Payload: &stranger{}}
	if err := c.WriteRequest(&wire.Request{Msg: nested}); err == nil {
		t.Fatal("an unregistered nested payload was encoded")
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes of a failed frame reached the stream", buf.Len())
	}
	// The codec stays usable.
	if err := c.WriteRequest(&wire.Request{Msg: &pastry.Ping{}}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterIsIdempotentAndRejectsConflicts(t *testing.T) {
	register()
	register()
	defer func() {
		if recover() == nil {
			t.Fatal("binding a taken tag to another type did not panic")
		}
	}()
	wire.Register[wire.DirReply](1) // tag 1 is DirEntry
}

// header builds a frame header claiming n body bytes.
func header(n uint32, version, kind byte) []byte {
	h := binary.BigEndian.AppendUint32(nil, n+2)
	return append(h, version, kind)
}

func TestMalformedFramesAreErrors(t *testing.T) {
	register()
	ping := requestFrame(t, &wire.Request{Msg: &pastry.Ping{}})
	body := ping[6:]
	cases := map[string][]byte{
		"garbage":          []byte("this is not a frame"),
		"other version":    append(header(uint32(len(body)), wire.Version+1, 1), body...),
		"response kind":    append(header(uint32(len(body)), wire.Version, 2), body...),
		"length too big":   append(binary.BigEndian.AppendUint32(nil, wire.MaxFrame+1), wire.Version, 1),
		"length too small": {0, 0, 0, 1, wire.Version, 1},
		"lying length":     append(header(wire.MaxFrame-2, wire.Version, 1), body...),
		"unknown tag":      append(header(uint32(len(body)), wire.Version, 1), append(append([]byte(nil), body[:len(body)-1]...), 250)...),
		"trailing bytes":   append(header(uint32(len(body)+1), wire.Version, 1), append(append([]byte(nil), body...), 0)...),
		"bad trace flags":  append(header(uint32(len(body)), wire.Version, 1), append(append(append([]byte(nil), body[:16]...), 0xF0), body[17:]...)...),
	}
	for name, frame := range cases {
		if _, err := decoder(frame).ReadRequest(); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := decoder(append(header(1, wire.Version, 2), 99)).ReadResponse(); err == nil {
		t.Error("unknown error code: decoded without error")
	}
	if _, err := decoder(append(header(uint32(len(body)), wire.Version+1, 1), body...)).ReadRequest(); err == nil || !strings.Contains(err.Error(), "same build") {
		t.Errorf("version mismatch must say what to do about it: %v", err)
	}
}

// TestLyingLengthAllocatesOneChunk: a header claiming a gigabyte over a
// stream that then ends must fail after at most one growth chunk.
func TestLyingLengthAllocatesOneChunk(t *testing.T) {
	frame := header(wire.MaxFrame-2, wire.Version, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decoder(frame).ReadRequest()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a frame with no body")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("a lying length prefix allocated %d bytes", grew)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to both frame readers: any
// outcome but a panic or a runaway allocation is acceptable, and what
// decodes must encode again.
func FuzzDecodeFrame(f *testing.F) {
	register()
	var buf bytes.Buffer
	c := wire.NewCodec(&buf)
	for _, req := range []*wire.Request{
		{Src: id.NodeFromUint64(1), Msg: &wire.DirQuery{}},
		{Src: id.NodeFromUint64(2), Msg: &wire.DirEntry{ID: id.NodeFromUint64(3), Addr: "127.0.0.1:7001", X: 1.5, Y: -2}, TC: obs.TraceContext{ID: 9, Sampled: true, Budget: 64}},
		{Msg: &pastry.RouteRequest{Key: id.NodeFromUint64(4), Payload: &past.LookupMsg{}, Hops: 1}},
	} {
		buf.Reset()
		if err := c.WriteRequest(req); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
	}
	for _, resp := range []*wire.Response{
		{Msg: &wire.DirReply{Entries: []wire.DirEntry{{Addr: "a:1"}, {Addr: "b:2", X: 3}}}},
		{Code: wire.CodeTimeout, Err: "netsim: timeout"},
		{},
	} {
		buf.Reset()
		if err := c.WriteResponse(resp); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
	}
	responseFrame := func(t *testing.T, resp *wire.Response) []byte {
		var buf bytes.Buffer
		if err := wire.NewCodec(&buf).WriteResponse(resp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Frames are compared, not values: a decoded NaN is not DeepEqual to
	// itself.
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decoder(data).ReadRequest(); err == nil {
			again := requestFrame(t, &req)
			back, err := decoder(again).ReadRequest()
			if err != nil || !bytes.Equal(requestFrame(t, &back), again) {
				t.Fatalf("request %+v re-encoded to %+v (%v)", req, back, err)
			}
		}
		if resp, err := decoder(data).ReadResponse(); err == nil {
			again := responseFrame(t, &resp)
			back, err := decoder(again).ReadResponse()
			if err != nil || !bytes.Equal(responseFrame(t, &back), again) {
				t.Fatalf("response %+v re-encoded to %+v (%v)", resp, back, err)
			}
		}
	})
}

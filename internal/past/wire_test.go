package past

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"past/internal/id"
	"past/internal/pastry"
	"past/internal/wire"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzDecodeMessage from the current codec")

// goldenTags is the wire format's tag table. A frame written by one
// build must mean the same thing to another, so a tag may be added, or
// retired with its message type (a peer still sending it gets a decode
// error, never a different message), but never renumbered or reused;
// that would need a new wire.Version.
var goldenTags = map[wire.Tag]string{
	1: "*wire.DirEntry", 2: "*wire.DirQuery", 3: "*wire.DirReply",

	16: "*pastry.RouteRequest", 17: "*pastry.RouteReply", 18: "*pastry.joinPayload",
	19: "*pastry.Ping", 20: "*pastry.Pong", 21: "*pastry.StateRequest", 22: "*pastry.StateReply",
	23: "*pastry.Announce", 24: "*pastry.Depart", 25: "*pastry.RowRequest", 26: "*pastry.RowReply",
	27: "*pastry.Ack",

	32: "*past.InsertMsg", 33: "*past.InsertReply", 34: "*past.LookupMsg", 35: "*past.LookupReply",
	36: "*past.ReclaimMsg", 37: "*past.ReclaimReply", 38: "*past.storeReplicaMsg", 39: "*past.storeReplicaReply",
	40: "*past.divertStoreMsg", 41: "*past.divertStoreReply", 42: "*past.freeSpaceMsg", 43: "*past.freeSpaceReply",
	44: "*past.installPointerMsg", 45: "*past.discardMsg", 46: "*past.discardReply", 47: "*past.fetchMsg",
	48: "*past.fetchReply", 49: "*past.acquireMsg", 50: "*past.acquireReply", 51: "*past.locateSpaceMsg",
	52: "*past.locateSpaceReply", 53: "*past.convertToDivertedMsg", 54: "*past.pointerCheckMsg",
	55: "*past.pointerCheckReply", 56: "*past.replicaSetQuery", 57: "*past.replicaSetReply",
	58: "*past.divertedHolderLeaving", 59: "*past.storeFragMsg", 60: "*past.storeFragReply",
	61: "*past.fetchFragMsg", 62: "*past.fetchFragReply", 63: "*past.checkFragMsg", 64: "*past.checkFragReply",
	65: "*past.dropFragMsg", 66: "*past.mapUpdateMsg", 67: "*past.ackMsg", 68: "*past.ClientInsert",
	69: "*past.ClientInsertReply", 70: "*past.ClientLookup", 71: "*past.ClientLookupReply",
	72: "*past.ClientReclaim", 73: "*past.ClientReclaimReply", 74: "*past.ClientReplicaReport",
	75: "*past.ClientReplicaReportReply",
	// 76, 77: retired (the ClientStatus request and reply).
	// 78, 79: retired (the ClientStats request and reply).
	80: "*past.ClientObsReport", 81: "*past.ClientObsReportReply",
}

func registerAll() {
	wire.RegisterWire()
	RegisterWire()
}

func TestGoldenTagTable(t *testing.T) {
	registerAll()
	got := map[wire.Tag]string{}
	for tag, m := range wire.Registered() {
		got[tag] = reflect.TypeOf(m).String()
	}
	if !reflect.DeepEqual(got, goldenTags) {
		for tag := 0; tag < 256; tag++ {
			if g, w := got[wire.Tag(tag)], goldenTags[wire.Tag(tag)]; g != w {
				t.Errorf("tag %d is %q; the golden table says %q", tag, g, w)
			}
		}
	}
}

// fill sets every exported field reachable from v to a non-zero value,
// each number different from the last, and fails on a kind it does not
// know so that a new kind of field cannot slip past the coverage test.
// Unexported fields are not on the wire (they record how a message was
// received) and are left alone; an atomic.Int64 is filled as an int64.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	fillInt := int64(*n) * 1000003 * int64(1-*n%2*2) // several varint bytes, both signs
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(fillInt)
	case reflect.Uint8:
		v.SetUint(uint64(*n%250 + 1))
	case reflect.Uint32:
		v.SetUint(uint64(*n) * 2654435761 & 0xFFFFFFFF)
	case reflect.Uint64:
		v.SetUint(uint64(*n) * 0x9E3779B97F4A7C15)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, n)
			fill(t, e, n)
			v.SetMapIndex(k, e)
		}
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Interface: // Payload any: some registered message
		p := &LookupMsg{}
		fill(t, reflect.ValueOf(p).Elem(), n)
		v.Set(reflect.ValueOf(p))
	case reflect.Struct:
		if a, ok := v.Addr().Interface().(*atomic.Int64); ok {
			a.Store(fillInt)
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fill: no rule for a field of kind %v (%v): teach fill and the codec about it", v.Kind(), v.Type())
	}
}

// sameOnWire is reflect.DeepEqual over what messages carry on the wire:
// it skips unexported fields, except inside a type that has no exported
// field (an atomic.Int64), which is compared whole.
func sameOnWire(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameOnWire(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameOnWire(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !sameOnWire(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		exported := false
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() {
				exported = true
				if !sameOnWire(a.Field(i), b.Field(i)) {
					return false
				}
			}
		}
		return exported || reflect.DeepEqual(a.Interface(), b.Interface())
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// filledMessages returns one instance of every registered type with
// every field set, in tag order.
func filledMessages(t *testing.T) []wire.Message {
	registerAll()
	reg := wire.Registered()
	tags := make([]int, 0, len(reg))
	for tag := range reg {
		tags = append(tags, int(tag))
	}
	sort.Ints(tags)
	out := make([]wire.Message, 0, len(tags))
	for _, tag := range tags {
		m, n := reg[wire.Tag(tag)], tag*100
		fill(t, reflect.ValueOf(m).Elem(), &n)
		out = append(out, m)
	}
	return out
}

type stream struct {
	io.Reader
	io.Writer
}

func decodeRequest(frame []byte) (wire.Request, error) {
	return wire.NewCodec(stream{bytes.NewReader(frame), io.Discard}).ReadRequest()
}

func requestFrame(t testing.TB, req *wire.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.NewCodec(&buf).WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireFieldCoverage fails when a message type gains a field that
// its AppendWire/DecodeWire pair does not carry.
func TestWireFieldCoverage(t *testing.T) {
	msgs := filledMessages(t)
	if len(msgs) != len(goldenTags) {
		t.Fatalf("%d registered types, %d golden tags", len(msgs), len(goldenTags))
	}
	for _, m := range msgs {
		var req wire.Request
		n := 7
		fill(t, reflect.ValueOf(&req).Elem(), &n)
		req.Msg = m
		got, err := decodeRequest(requestFrame(t, &req))
		if err != nil {
			t.Errorf("%T: %v", m, err)
			continue
		}
		if !sameOnWire(reflect.ValueOf(got), reflect.ValueOf(req)) {
			t.Errorf("%T did not survive the wire:\n sent %+v\n  got %+v", m, req.Msg, got.Msg)
		}
	}
}

// TestWireZeroValues: zero messages, nil pointers and empty slices
// round-trip, empty slices coming back nil as they did under gob.
func TestWireZeroValues(t *testing.T) {
	registerAll()
	for tag, m := range wire.Registered() {
		got, err := decodeRequest(requestFrame(t, &wire.Request{Msg: m}))
		if err != nil {
			t.Errorf("tag %d %T: %v", tag, m, err)
		} else if !sameOnWire(reflect.ValueOf(got.Msg), reflect.ValueOf(m)) {
			t.Errorf("zero %T decoded as %+v", m, got.Msg)
		}
	}
	in := &pastry.RouteRequest{Rows: []id.Node{}, Payload: &InsertMsg{Content: []byte{}}}
	got, err := decodeRequest(requestFrame(t, &wire.Request{Msg: in}))
	if err != nil {
		t.Fatal(err)
	}
	rr := got.Msg.(*pastry.RouteRequest)
	if rr.Rows != nil || rr.Payload.(*InsertMsg).Content != nil {
		t.Fatalf("empty slices decoded as non-nil: %+v", rr)
	}
}

// TestWireTruncation cuts every type's frame at every byte boundary,
// once as a stream that ends early and once with the length prefix
// rewritten to match, so the body decoder itself runs out of bytes.
// Every cut must be an error, never a panic and never a message.
func TestWireTruncation(t *testing.T) {
	for _, m := range filledMessages(t) {
		frame := requestFrame(t, &wire.Request{Msg: m})
		for cut := 0; cut < len(frame); cut++ {
			if _, err := decodeRequest(frame[:cut]); err == nil {
				t.Fatalf("%T: stream cut at %d of %d decoded", m, cut, len(frame))
			}
			if cut < 6 {
				continue
			}
			short := append([]byte(nil), frame[:cut]...)
			binary.BigEndian.PutUint32(short, uint32(cut-4))
			if _, err := decodeRequest(short); err == nil {
				t.Fatalf("%T: body cut at %d of %d decoded", m, cut, len(frame))
			}
		}
	}
}

// corpusFile renders one seed in the format `go test -fuzz` reads.
func corpusFile(frame []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame))
}

// TestWireCorpus keeps the checked-in fuzz corpus (one frame per type)
// equal to what the codec writes today. A difference means the frame
// format changed: bump wire.Version, then regenerate with
// `go test ./internal/past -run TestWireCorpus -update`.
func TestWireCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeMessage")
	for _, m := range filledMessages(t) {
		name := strings.NewReplacer("*", "", ".", "_").Replace(reflect.TypeOf(m).String())
		path := filepath.Join(dir, name)
		want := corpusFile(requestFrame(t, &wire.Request{Msg: m}))
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%v (run with -update after adding a message type)", err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s no longer matches the codec: the frame format changed", path)
		}
	}
}

// FuzzDecodeMessage throws arbitrary frames at the decoder with every
// message type registered. Whatever decodes must encode to a frame that
// decodes to the same frame again.
func FuzzDecodeMessage(f *testing.F) {
	registerAll()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		again := requestFrame(t, &req)
		back, err := decodeRequest(again)
		if err != nil || !bytes.Equal(requestFrame(t, &back), again) {
			t.Fatalf("%+v re-encoded to %+v (%v)", req, back, err)
		}
	})
}

package logstore

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"past/internal/cert"
	"past/internal/id"
	"past/internal/store"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzDecodeWALRecord from the current record format")

// corpusRecords is one record of every type, the add record in each
// combination of its optional parts.
func corpusRecords() map[string]walRecord {
	f := fid(7)
	loc := Loc{Seg: 3, Off: 4104, Len: 512, CRC: 0xdeadbeef}
	fc := &cert.FileCertificate{FileID: f, ContentHash: [20]byte{1, 2, 3}, K: 5, Salt: 1 << 60, Created: 1_000_000, Owner: []byte("owner-key"), OwnerSig: []byte("owner-sig"), Sig: []byte("card-sig")}
	add := func(hasContent bool, fc *cert.FileCertificate) walRecord {
		r := walRecord{typ: recAdd, file: f, hasContent: hasContent,
			entry: store.Entry{File: f, Size: 512, Kind: store.DivertedIn, Owner: id.NodeFromUint64(9), Cert: fc}}
		if hasContent {
			r.loc = loc
		}
		return r
	}
	return map[string]walRecord{
		"add":              add(false, nil),
		"add_content":      add(true, nil),
		"add_cert":         add(false, fc),
		"add_content_cert": add(true, fc),
		"remove":           {typ: recRemove, file: f},
		"set_pointer":      {typ: recSetPointer, file: f, ptr: store.Pointer{File: f, Target: id.NodeFromUint64(4), Size: 512, Role: store.Backup}},
		"remove_pointer":   {typ: recRemovePointer, file: f},
		"relocate":         {typ: recRelocate, file: f, loc: loc},
		"checkpoint":       {typ: recCheckpoint, ckpt: ckptHeader{capacity: 64 << 20, walSeq: 12, entries: 1000, pointers: 17}},
	}
}

// TestWALCorpus keeps the checked-in fuzz seeds equal to what the
// encoder writes today, and each of them decoding to the record it was
// made from. A difference means the record format changed: bump
// walMagic and ckptMagic, then regenerate with
// `go test ./internal/logstore -run TestWALCorpus -update`.
func TestWALCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeWALRecord")
	for name, rec := range corpusRecords() {
		frame := appendWALRecord(nil, rec)
		back, n, ok, err := nextWALRecord(frame, 0)
		if err != nil || !ok || n != int64(len(frame)) || !reflect.DeepEqual(back, rec) {
			t.Errorf("%s: %+v decoded to %+v (n=%d ok=%v err=%v)", name, rec, back, n, ok, err)
		}
		path := filepath.Join(dir, name)
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame))
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
			t.Errorf("%v (run with -update after adding a record type)", err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s no longer matches the encoder: the record format changed", path)
		}
	}
}

// FuzzDecodeWALRecord throws arbitrary bytes at the one decoder of
// on-disk metadata — WAL files and the checkpoint are both sequences of
// these records. The framing must survive any lengths, and the payload
// decoder runs on the bytes after the frame header whether or not the
// CRC holds, so the fuzzer is not stopped by a checksum it cannot
// solve. Whatever decodes must encode to a frame that decodes to the
// same record and the same bytes again.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, n, ok, _ := nextWALRecord(data, 0); ok && n > int64(len(data)) {
			t.Fatalf("record of %d bytes parsed out of %d", n, len(data))
		}
		if len(data) < recHeaderSize {
			return
		}
		rec, err := decodeWALPayload(data[recHeaderSize:])
		if err != nil {
			return
		}
		frame := appendWALRecord(nil, rec)
		back, n, ok, err := nextWALRecord(frame, 0)
		if err != nil || !ok || n != int64(len(frame)) || !reflect.DeepEqual(back, rec) || !bytes.Equal(appendWALRecord(nil, back), frame) {
			t.Fatalf("%+v re-encoded to %+v (n=%d of %d, ok=%v, err=%v)", rec, back, n, len(frame), ok, err)
		}
	})
}

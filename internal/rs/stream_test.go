package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestReconstructIntoEveryIndex(t *testing.T) {
	enc, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 4*97)
	rng.Read(data)
	shards, err := enc.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(shards); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < enc.TotalShards(); idx++ {
		// Lose the target plus as many others as parity allows.
		lost := make([][]byte, len(shards))
		copy(lost, shards)
		lost[idx] = nil
		lost[(idx+2)%len(lost)] = nil
		lost[(idx+4)%len(lost)] = nil
		dst := make([]byte, len(shards[0]))
		if err := enc.ReconstructInto(lost, idx, dst); err != nil {
			t.Fatalf("ReconstructInto(%d): %v", idx, err)
		}
		if !bytes.Equal(dst, shards[idx]) {
			t.Fatalf("ReconstructInto(%d): rebuilt shard differs", idx)
		}
		// The other missing shards must remain untouched (not rebuilt).
		if lost[(idx+2)%len(lost)] != nil || lost[(idx+4)%len(lost)] != nil {
			t.Fatalf("ReconstructInto(%d): materialized non-target shards", idx)
		}
	}
}

func TestReconstructIntoTooFew(t *testing.T) {
	enc, _ := New(3, 2)
	shards := make([][]byte, 5)
	shards[0] = []byte{1, 2}
	shards[1] = []byte{3, 4}
	dst := make([]byte, 2)
	if err := enc.ReconstructInto(shards, 4, dst); err == nil {
		t.Fatal("want error with only 2 of 3 survivors")
	}
}

func TestMulTableMatchesGfMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := mulTable[a][b], gfMul(byte(a), byte(b)); got != want {
				t.Fatalf("mulTable[%d][%d] = %d, want %d", a, b, got, want)
			}
		}
	}
}

package rs

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks for the coder's two hot paths: parity generation on
// insert and shard reconstruction on repair. Sizes are one PAST
// fragment group (64 KiB of data) under the two configurations the
// experiments use: EC(4,8) (replication-equivalent overhead) and
// RS(8,4) (the client-side frag default).

func benchShards(b *testing.B, data, parity, shardSize int) (*Encoder, [][]byte) {
	b.Helper()
	enc, err := New(data, parity)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	shards := make([][]byte, data+parity)
	for i := range shards {
		shards[i] = make([]byte, shardSize)
		if i < data {
			rng.Read(shards[i])
		}
	}
	return enc, shards
}

func BenchmarkEncode(b *testing.B) {
	for _, cfg := range []struct{ data, parity int }{{4, 8}, {8, 4}} {
		b.Run(fmt.Sprintf("rs(%d,%d)x16KiB", cfg.data, cfg.parity), func(b *testing.B) {
			enc, shards := benchShards(b, cfg.data, cfg.parity, 16<<10)
			b.SetBytes(int64(cfg.data * 16 << 10))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := enc.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReconstruct(b *testing.B) {
	for _, cfg := range []struct{ data, parity int }{{4, 8}, {8, 4}} {
		b.Run(fmt.Sprintf("rs(%d,%d)x16KiB", cfg.data, cfg.parity), func(b *testing.B) {
			enc, shards := benchShards(b, cfg.data, cfg.parity, 16<<10)
			if err := enc.Encode(shards); err != nil {
				b.Fatal(err)
			}
			lost := make([][]byte, len(shards))
			b.SetBytes(int64(cfg.data * 16 << 10))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(lost, shards)
				// Lose as many shards as parity allows, starting with data.
				for j := 0; j < cfg.parity; j++ {
					lost[j%len(lost)] = nil
				}
				if err := enc.Reconstruct(lost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSplitEncode is the insert coordinator's whole coding step on
// one 64 KiB object under rs(4,2), the benchmark's tcp-ec configuration.
func BenchmarkSplitEncode(b *testing.B) {
	enc, err := New(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards, err := enc.Split(data)
		if err == nil {
			err = enc.Encode(shards)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

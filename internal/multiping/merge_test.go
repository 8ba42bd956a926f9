package multiping_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/multiping"
)

// randomDataset synthesizes a campaign-shaped dataset: rounds at fixed
// intervals, each round emitting at most one record per pair, pairs
// numbered with their canonical AllPairs index. This is exactly the
// key-uniqueness structure Merge's (T, Seq) order relies on.
func randomDataset(rng *rand.Rand, pairs []multiping.ProbePair, rounds int) *multiping.Dataset {
	d := &multiping.Dataset{}
	for r := 0; r < rounds; r++ {
		t := time.Duration(r) * 5 * time.Minute
		for _, p := range pairs {
			if rng.Intn(4) == 0 {
				continue // pair silent this round (e.g. outage)
			}
			d.Records = append(d.Records, multiping.Record{
				T: t, Src: p.Src, Dst: p.Dst, Seq: uint64(p.Index),
				SCIONRTTms: rng.Float64() * 300, SCIONOK: rng.Intn(4),
			})
			d.Probes++
			if rng.Intn(3) == 0 {
				d.PathCounts = append(d.PathCounts, multiping.PathCountSample{
					T: t, Src: p.Src, Dst: p.Dst, Seq: uint64(p.Index),
					Count: 1 + rng.Intn(5), BestMS: rng.Float64() * 200, SecondMS: rng.Float64() * 250,
				})
			}
		}
	}
	return d
}

// TestMergeOrderInvariant is the property test behind the parallel
// campaign runner: however a dataset is partitioned by pair, and in
// whatever order the partials are merged, the result is identical to
// the unpartitioned dataset.
func TestMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ases []addr.IA
	for _, s := range []string{"71-1", "71-2", "71-2:0:3b", "71-10", "71-11"} {
		ases = append(ases, addr.MustParseIA(s))
	}
	pairs := multiping.AllPairs(ases)

	for trial := 0; trial < 50; trial++ {
		golden := randomDataset(rng, pairs, 1+rng.Intn(8))

		// Partition by pair into 1..6 shards (round-robin like
		// planShards, but membership is irrelevant to the property).
		shardCount := 1 + rng.Intn(6)
		shardOf := make(map[uint64]int, len(pairs))
		for i, p := range pairs {
			shardOf[uint64(p.Index)] = i % shardCount
		}
		parts := make([]*multiping.Dataset, shardCount)
		for i := range parts {
			parts[i] = &multiping.Dataset{}
		}
		for _, r := range golden.Records {
			p := parts[shardOf[r.Seq]]
			p.Records = append(p.Records, r)
			p.Probes++
		}
		for _, s := range golden.PathCounts {
			p := parts[shardOf[s.Seq]]
			p.PathCounts = append(p.PathCounts, s)
		}

		// Scramble each partial's internal order and merge the partials
		// in a random order — Merge must restore the canonical order.
		for _, p := range parts {
			rng.Shuffle(len(p.Records), func(i, j int) {
				p.Records[i], p.Records[j] = p.Records[j], p.Records[i]
			})
			rng.Shuffle(len(p.PathCounts), func(i, j int) {
				p.PathCounts[i], p.PathCounts[j] = p.PathCounts[j], p.PathCounts[i]
			})
		}
		merged := &multiping.Dataset{}
		for _, i := range rng.Perm(shardCount) {
			merged.Merge(parts[i])
		}

		if merged.Probes != golden.Probes {
			t.Fatalf("trial %d: probes = %d, want %d", trial, merged.Probes, golden.Probes)
		}
		if !reflect.DeepEqual(merged.Records, golden.Records) {
			t.Fatalf("trial %d (%d shards): merged records differ from unpartitioned dataset", trial, shardCount)
		}
		if !reflect.DeepEqual(merged.PathCounts, golden.PathCounts) {
			t.Fatalf("trial %d (%d shards): merged path counts differ from unpartitioned dataset", trial, shardCount)
		}
	}
}

// TestMergeNilAndEmpty pins the edge cases the sharded runner hits when
// a worker owns zero pairs or a shard saw no reachable rounds.
func TestMergeNilAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pairs := multiping.AllPairs([]addr.IA{addr.MustParseIA("71-1"), addr.MustParseIA("71-2")})
	golden := randomDataset(rng, pairs, 3)

	d := &multiping.Dataset{}
	d.Merge(nil)
	d.Merge(&multiping.Dataset{})
	if len(d.Records) != 0 || len(d.PathCounts) != 0 || d.Probes != 0 {
		t.Fatalf("merging nil/empty into empty produced data: %+v", d)
	}
	d.Merge(golden)
	d.Merge(nil)
	d.Merge(&multiping.Dataset{})
	if !reflect.DeepEqual(d.Records, golden.Records) || d.Probes != golden.Probes {
		t.Fatal("nil/empty merges disturbed the dataset")
	}
}

package chipchar

import (
	"reflect"
	"testing"
)

// TestFigure6WorkerInvariant is the golden determinism check for the
// Monte-Carlo sharding scheme: the same population must come out
// bit-identical at -parallel 1 and -parallel 4.
func TestFigure6WorkerInvariant(t *testing.T) {
	serial := Figure6(Config{WLs: 3000, Seed: 7, Workers: 1})
	par := Figure6(Config{WLs: 3000, Seed: 7, Workers: 4})
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("Figure6 differs between 1 and 4 workers:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

// TestShardSeedSeparation guards the seed derivation: distinct
// (stream, shard) pairs must not collide for a fixed base seed.
func TestShardSeedSeparation(t *testing.T) {
	seen := map[int64]bool{}
	for stream := uint64(0); stream < 4; stream++ {
		for shard := uint64(0); shard < 256; shard++ {
			s := shardSeed(1, stream, shard)
			if seen[s] {
				t.Fatalf("shardSeed collision at stream %d shard %d", stream, shard)
			}
			seen[s] = true
		}
	}
}

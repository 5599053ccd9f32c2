package sim

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
)

// The unordered driver must deliver every universe index exactly once
// across all per-worker sinks, with verdicts identical to the
// serialized path — the merge of worker-private sinks is then a pure
// union.
func TestUnorderedMatchesOrdered(t *testing.T) {
	const n = 41
	tr := recordMarch(t, march.MATSPlus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 6, 9).Faults
	ctx := context.Background()
	wantDet := replayRef(t, p, faults)
	for _, chunk := range []int{1, 7, 100, 4096} {
		const workers = 4
		sinks := make([]*collectSink, workers)
		w, _, err := ShardsCompiledUnordered(ctx, p, fault.SliceSource(faults),
			StreamConfig{Chunk: chunk, Workers: workers},
			func(w int) ChunkSink {
				sinks[w] = newCollectSink()
				return sinks[w].sink
			})
		if err != nil {
			t.Fatal(err)
		}
		// The chunk is capped at 1/chunksPerWorker of one worker's
		// share, rounded up to a whole batch; the pool is clamped to the
		// resulting chunk count.  Every effective worker gets a sink, no
		// idle one is started.
		share := (len(faults) + chunksPerWorker*workers - 1) / (chunksPerWorker * workers)
		share = (share + BatchSize - 1) / BatchSize * BatchSize
		eff := min(chunk, share, len(faults))
		if chunks := (len(faults) + eff - 1) / eff; w != min(workers, chunks) {
			t.Fatalf("chunk=%d: %d workers for %d chunks", chunk, w, chunks)
		}
		merged := newCollectSink()
		for i, cs := range sinks {
			if (cs == nil) != (i >= w) {
				t.Fatalf("chunk=%d: sink factory called=%v for worker %d of %d", chunk, cs != nil, i, w)
			}
			if cs == nil {
				continue
			}
			for i, d := range cs.det {
				if _, dup := merged.det[i]; dup {
					t.Fatalf("chunk=%d: universe index %d delivered to two workers", chunk, i)
				}
				merged.det[i] = d
				merged.seen++
			}
		}
		if merged.seen != len(faults) {
			t.Fatalf("chunk=%d: %d verdicts, want %d", chunk, merged.seen, len(faults))
		}
		for i := range faults {
			if merged.det[i] != wantDet[i] {
				t.Fatalf("chunk=%d fault %d: unordered %v, shard %v", chunk, i, merged.det[i], wantDet[i])
			}
		}
	}
}

// With a drop filter the unordered path must skip exactly the dropped
// indices, like the serialized path.
func TestUnorderedDropFilter(t *testing.T) {
	const n = 24
	tr := recordMarch(t, march.MarchCMinus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 4, 5).Faults
	drop := fault.NewBitSet(len(faults))
	for i := 0; i < len(faults); i += 3 {
		drop.Set(i)
	}
	sinks := make([]*collectSink, 3)
	_, _, err = ShardsCompiledUnordered(context.Background(), p, fault.SliceSource(faults),
		StreamConfig{Chunk: 11, Workers: 3, Drop: drop},
		func(w int) ChunkSink {
			sinks[w] = newCollectSink()
			return sinks[w].sink
		})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, cs := range sinks {
		for i := range cs.det {
			if drop.Get(i) {
				t.Fatalf("dropped index %d was delivered", i)
			}
			seen++
		}
	}
	if want := len(faults) - drop.Count(); seen != want {
		t.Fatalf("delivered %d survivors, want %d", seen, want)
	}
}

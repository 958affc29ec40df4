package ddp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ddstore/internal/cluster"
	"ddstore/internal/comm"
	"ddstore/internal/core"
	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/hydra"
	"ddstore/internal/obs"
	"ddstore/internal/pff"
	"ddstore/internal/pfs"
	"ddstore/internal/trace"
)

func TestNewSplitProportions(t *testing.T) {
	s := NewSplit(1000, 1)
	if s.Train.Len() != 800 || s.Val.Len() != 100 || s.Test.Len() != 100 {
		t.Fatalf("split sizes %d/%d/%d", s.Train.Len(), s.Val.Len(), s.Test.Len())
	}
	seen := map[int64]bool{}
	for _, part := range []IDs{s.Train, s.Val, s.Test} {
		for _, id := range Collect(part) {
			if id < 0 || id >= 1000 || seen[id] {
				t.Fatalf("id %d invalid or in two partitions", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 1000 {
		t.Fatalf("split covers %d ids", len(seen))
	}
}

func TestNewSplitDeterministic(t *testing.T) {
	a, b := NewSplit(100, 7), NewSplit(100, 7)
	at, bt := Collect(a.Train), Collect(b.Train)
	for i := range at {
		if at[i] != bt[i] {
			t.Fatal("same-seed splits differ")
		}
	}
	ct := Collect(NewSplit(100, 8).Train)
	same := true
	for i := range at {
		if at[i] != ct[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical split")
	}
}

func TestSamplerValidation(t *testing.T) {
	ids := make([]int64, 100)
	if _, err := NewGlobalShuffleSampler(SliceIDs(ids), 1, 4, 0, 0); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := NewGlobalShuffleSampler(SliceIDs(ids), 1, 4, 4, 8); err == nil {
		t.Fatal("bad rank accepted")
	}
	if _, err := NewGlobalShuffleSampler(SliceIDs(ids), 1, 4, 0, 100); err == nil {
		t.Fatal("dataset smaller than one global batch accepted")
	}
}

func TestSamplerBatchRequiresEpoch(t *testing.T) {
	ids := make([]int64, 64)
	s, err := NewGlobalShuffleSampler(SliceIDs(ids), 1, 2, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Batch(0); err == nil {
		t.Fatal("Batch before SetEpoch accepted")
	}
}

func TestSamplerGlobalBatchesDisjointAndCovering(t *testing.T) {
	// Across all ranks and steps of one epoch, batches partition a prefix
	// of the global permutation.
	total := 97
	ids := make([]int64, total)
	for i := range ids {
		ids[i] = int64(i * 3) // arbitrary distinct ids
	}
	const world, localBatch = 4, 4
	samplers := make([]*GlobalShuffleSampler, world)
	for r := range samplers {
		s, err := NewGlobalShuffleSampler(SliceIDs(ids), 5, world, r, localBatch)
		if err != nil {
			t.Fatal(err)
		}
		s.SetEpoch(2)
		samplers[r] = s
	}
	steps := samplers[0].StepsPerEpoch()
	if steps != total/(world*localBatch) {
		t.Fatalf("StepsPerEpoch = %d", steps)
	}
	seen := map[int64]bool{}
	for step := 0; step < steps; step++ {
		for r := range samplers {
			batch, err := samplers[r].Batch(step)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != localBatch {
				t.Fatalf("batch size %d", len(batch))
			}
			for _, id := range batch {
				if seen[id] {
					t.Fatalf("id %d appeared twice in one epoch", id)
				}
				seen[id] = true
			}
		}
	}
	if len(seen) != steps*world*localBatch {
		t.Fatalf("epoch covered %d ids", len(seen))
	}
}

func TestSamplerReshufflesAcrossEpochs(t *testing.T) {
	ids := make([]int64, 256)
	for i := range ids {
		ids[i] = int64(i)
	}
	s, err := NewGlobalShuffleSampler(SliceIDs(ids), 9, 1, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	s.SetEpoch(0)
	b0, _ := s.Batch(0)
	first := append([]int64(nil), b0...)
	s.SetEpoch(1)
	b1, _ := s.Batch(0)
	same := true
	for i := range first {
		if first[i] != b1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epoch 1 batch identical to epoch 0 (no global reshuffle)")
	}
}

func TestSamplerPermutationProperty(t *testing.T) {
	f := func(seed uint64, rawEpoch uint8) bool {
		ids := make([]int64, 60)
		for i := range ids {
			ids[i] = int64(i + 1000)
		}
		s, err := NewGlobalShuffleSampler(SliceIDs(ids), seed, 3, 1, 5)
		if err != nil {
			return false
		}
		s.SetEpoch(int(rawEpoch))
		// The rank's batches must draw from the original id set without
		// duplicates within the epoch window.
		seen := map[int64]bool{}
		for step := 0; step < s.StepsPerEpoch(); step++ {
			b, err := s.Batch(step)
			if err != nil {
				return false
			}
			for _, id := range b {
				if id < 1000 || id >= 1060 || seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShardForCoversAll(t *testing.T) {
	ids := make([]int64, 23)
	for i := range ids {
		ids[i] = int64(i)
	}
	seen := map[int64]bool{}
	for r := 0; r < 5; r++ {
		for _, id := range Collect(ShardFor(SliceIDs(ids), 5, r)) {
			if seen[id] {
				t.Fatalf("id %d in two shards", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 23 {
		t.Fatalf("shards cover %d ids", len(seen))
	}
}

// runTraining runs a DDP training over a fresh world and returns rank 0's
// result plus the merged profiler.
func runTraining(t *testing.T, n int, machine *cluster.Machine, mk func(c *comm.Comm) (Config, error)) (*Result, *trace.Profiler) {
	t.Helper()
	var opts []comm.Option
	if machine != nil {
		opts = append(opts, comm.WithMachine(machine))
	}
	w, err := comm.NewWorld(n, 77, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	merged := trace.New()
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		cfg, err := mk(c)
		if err != nil {
			return err
		}
		prof := trace.New()
		cfg.Profiler = prof
		r, err := Run(c, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		merged.Merge(prof)
		if c.Rank() == 0 {
			res = r
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, merged
}

func TestSimTrainingDDStoreVsPFF(t *testing.T) {
	// The headline comparison at small scale: DDStore's end-to-end
	// throughput must beat PFF's on the same workload.
	machine := cluster.Perlmutter()
	const n = 8
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 4000})
	simCfg := hydra.PaperConfig(ds.NodeFeatDim(), ds.EdgeFeatDim(), ds.OutputDim())

	base := Config{
		LocalBatch:       16,
		Epochs:           2,
		MaxStepsPerEpoch: 6,
		Seed:             3,
		SimModel:         simCfg,
	}

	ddstoreRes, prof := runTraining(t, n, machine, func(c *comm.Comm) (Config, error) {
		st, err := core.Open(c, ds, core.Options{})
		if err != nil {
			return Config{}, err
		}
		cfg := base
		cfg.Loader = &PlaneLoader{Plane: st}
		return cfg, nil
	})
	if prof.Get(trace.RegionLoading).Count == 0 || prof.Get(trace.RegionComm).Count == 0 {
		t.Fatal("profiler regions missing")
	}

	fs := pfs.New(machine, n)
	sizes, err := pff.SampleSizes(ds)
	if err != nil {
		t.Fatal(err)
	}
	pff.RegisterSim(fs, ds, sizes)
	pffRes, _ := runTraining(t, n, machine, func(c *comm.Comm) (Config, error) {
		cfg := base
		cfg.Loader = &SourceLoader{Source: pff.NewSim(fs, ds, sizes, c.Clock(), c.RNG())}
		return cfg, nil
	})

	if ddstoreRes.MeanThroughput <= pffRes.MeanThroughput {
		t.Fatalf("DDStore throughput %.1f <= PFF %.1f samples/s",
			ddstoreRes.MeanThroughput, pffRes.MeanThroughput)
	}
	// The paper reports ≥2.9× on average; at this small scale require >1.5×.
	if ddstoreRes.MeanThroughput < 1.5*pffRes.MeanThroughput {
		t.Fatalf("DDStore speedup only %.2fx over PFF",
			ddstoreRes.MeanThroughput/pffRes.MeanThroughput)
	}
}

func TestSimTrainingKeepsLatencies(t *testing.T) {
	machine := cluster.Perlmutter()
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 1000})
	res, _ := runTraining(t, 4, machine, func(c *comm.Comm) (Config, error) {
		st, err := core.Open(c, ds, core.Options{})
		if err != nil {
			return Config{}, err
		}
		return Config{
			Loader:           &PlaneLoader{Plane: st},
			LocalBatch:       8,
			Epochs:           1,
			MaxStepsPerEpoch: 4,
			Seed:             3,
			SimModel:         hydra.PaperConfig(3, 0, 1),
			KeepLatencies:    true,
		}, nil
	})
	if len(res.Latencies) != 4*8 {
		t.Fatalf("kept %d latencies, want 32", len(res.Latencies))
	}
	for _, l := range res.Latencies {
		if l <= 0 {
			t.Fatal("non-positive latency")
		}
	}
}

func TestRealTrainingConvergesUnderDDP(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 400})
	small := hydra.Config{
		NodeFeatDim: ds.NodeFeatDim(),
		EdgeFeatDim: ds.EdgeFeatDim(),
		HiddenDim:   16,
		ConvLayers:  2,
		FCLayers:    1,
		OutputDim:   ds.OutputDim(),
		Seed:        5,
	}
	res, _ := runTraining(t, 4, nil, func(c *comm.Comm) (Config, error) {
		st, err := core.Open(c, ds, core.Options{})
		if err != nil {
			return Config{}, err
		}
		return Config{
			Loader:     &PlaneLoader{Plane: st},
			LocalBatch: 8,
			Epochs:     6,
			Seed:       3,
			Model:      hydra.New(small),
			LR:         1e-3,
			Eval:       true,
		}, nil
	})
	first := res.Epochs[0].TrainLoss
	last := res.Epochs[len(res.Epochs)-1].TrainLoss
	if !(last < first) {
		t.Fatalf("DDP training loss did not improve: %v -> %v", first, last)
	}
	for _, e := range res.Epochs {
		if e.ValLoss <= 0 || e.TestLoss <= 0 {
			t.Fatalf("epoch %d missing eval losses: %+v", e.Epoch, e)
		}
	}
}

func TestTrainLossIdenticalAcrossRanks(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 200})
	small := hydra.Config{
		NodeFeatDim: ds.NodeFeatDim(), HiddenDim: 8, ConvLayers: 1, FCLayers: 1,
		OutputDim: ds.OutputDim(), Seed: 5,
	}
	w, err := comm.NewWorld(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, 3)
	err = w.Run(func(c *comm.Comm) error {
		st, err := core.Open(c, ds, core.Options{})
		if err != nil {
			return err
		}
		res, err := Run(c, Config{
			Loader:     &PlaneLoader{Plane: st},
			LocalBatch: 4,
			Epochs:     2,
			Seed:       3,
			Model:      hydra.New(small),
		})
		if err != nil {
			return err
		}
		losses[c.Rank()] = res.Epochs[1].TrainLoss
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if losses[0] != losses[1] || losses[1] != losses[2] {
		t.Fatalf("per-rank train losses diverge: %v", losses)
	}
}

// TestEvalOnUnevenShardsTwoSided evaluates a split whose shards need
// different numbers of eval loads (20 ids over 3 ranks in batches of 3: 3,
// 3 and 2 loads) on a two-sided store, which loads collectively: the short
// rank must keep entering the exchange, and the losses must be exactly the
// one-sided store's.
func TestEvalOnUnevenShardsTwoSided(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 200})
	small := hydra.Config{
		NodeFeatDim: ds.NodeFeatDim(), HiddenDim: 8, ConvLayers: 1, FCLayers: 1,
		OutputDim: ds.OutputDim(), Seed: 5,
	}
	split := NewSplit(ds.Len(), 3)
	if a, b := ShardFor(split.Val, 3, 0).Len(), ShardFor(split.Val, 3, 2).Len(); (a+2)/3 == (b+2)/3 {
		t.Fatalf("val shards of %d and %d ids need the same number of loads: the test would not exercise padding", a, b)
	}
	var losses [2][2]float64
	for i, f := range []core.Framework{core.FrameworkRMA, core.FrameworkTwoSided} {
		res, _ := runTraining(t, 3, nil, func(c *comm.Comm) (Config, error) {
			st, err := core.Open(c, ds, core.Options{Framework: f})
			if err != nil {
				return Config{}, err
			}
			return Config{
				Loader:     &PlaneLoader{Plane: st},
				LocalBatch: 3,
				Epochs:     1,
				Seed:       3,
				Model:      hydra.New(small),
				Eval:       true,
			}, nil
		})
		losses[i] = [2]float64{res.Epochs[0].ValLoss, res.Epochs[0].TestLoss}
	}
	if losses[0] != losses[1] || losses[0][0] <= 0 || losses[0][1] <= 0 {
		t.Fatalf("val/test losses: one-sided %v, two-sided %v", losses[0], losses[1])
	}
}

func TestRunValidation(t *testing.T) {
	w, err := comm.NewWorld(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) error {
		if _, err := Run(c, Config{}); err == nil {
			return fmt.Errorf("empty config accepted")
		}
		ds := datasets.HomoLumo(datasets.Config{NumGraphs: 50})
		st, err := core.Open(c, ds, core.Options{})
		if err != nil {
			return err
		}
		if _, err := Run(c, Config{Loader: &PlaneLoader{Plane: st}, LocalBatch: 0, Epochs: 1}); err == nil {
			return fmt.Errorf("zero batch accepted")
		}
		if _, err := Run(c, Config{Loader: &PlaneLoader{Plane: st}, LocalBatch: 4, Epochs: 0}); err == nil {
			return fmt.Errorf("zero epochs accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestThroughputPositiveAndDeterministic(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 600})
	runOnce := func() float64 {
		res, _ := runTraining(t, 4, cluster.Summit(), func(c *comm.Comm) (Config, error) {
			st, err := core.Open(c, ds, core.Options{})
			if err != nil {
				return Config{}, err
			}
			return Config{
				Loader:           &PlaneLoader{Plane: st},
				LocalBatch:       8,
				Epochs:           2,
				MaxStepsPerEpoch: 3,
				Seed:             3,
				SimModel:         hydra.PaperConfig(3, 0, 1),
			}, nil
		})
		return res.MeanThroughput
	}
	a, b := runOnce(), runOnce()
	if a <= 0 {
		t.Fatalf("throughput %v", a)
	}
	if a != b {
		t.Fatalf("simulated training not deterministic: %v vs %v", a, b)
	}
}

func TestEpochDurationPositive(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 300})
	res, _ := runTraining(t, 2, cluster.Laptop(), func(c *comm.Comm) (Config, error) {
		st, err := core.Open(c, ds, core.Options{})
		if err != nil {
			return Config{}, err
		}
		return Config{
			Loader:     &PlaneLoader{Plane: st},
			LocalBatch: 4,
			Epochs:     2,
			Seed:       1,
			SimModel:   hydra.PaperConfig(3, 0, 1),
		}, nil
	})
	for _, e := range res.Epochs {
		if e.Duration <= 0 || e.Throughput <= 0 {
			t.Fatalf("epoch %d: %+v", e.Epoch, e)
		}
		if e.Samples != e.Steps*4*2 {
			t.Fatalf("epoch %d samples %d", e.Epoch, e.Samples)
		}
	}
	var want time.Duration
	for _, e := range res.Epochs {
		want += e.Duration
	}
	if res.TotalDuration < want {
		t.Fatalf("total %v < sum of epochs %v", res.TotalDuration, want)
	}
}

func TestLocalShuffleSamplerStaysInShard(t *testing.T) {
	ids := make([]int64, 100)
	for i := range ids {
		ids[i] = int64(i)
	}
	const world, batch = 4, 5
	for rank := 0; rank < world; rank++ {
		s, err := NewLocalShuffleSampler(SliceIDs(ids), 3, world, rank, batch)
		if err != nil {
			t.Fatal(err)
		}
		shard := map[int64]bool{}
		for _, id := range Collect(ShardFor(SliceIDs(ids), world, rank)) {
			shard[id] = true
		}
		s.SetEpoch(0)
		seen := map[int64]bool{}
		for step := 0; step < s.StepsPerEpoch(); step++ {
			b, err := s.Batch(step)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range b {
				if !shard[id] {
					t.Fatalf("rank %d batch contains foreign id %d", rank, id)
				}
				if seen[id] {
					t.Fatalf("rank %d repeated id %d within an epoch", rank, id)
				}
				seen[id] = true
			}
		}
	}
}

func TestLocalShuffleSamplerReshuffles(t *testing.T) {
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i)
	}
	s, err := NewLocalShuffleSampler(SliceIDs(ids), 3, 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.SetEpoch(0)
	b0, _ := s.Batch(0)
	e0 := append([]int64(nil), b0...)
	s.SetEpoch(1)
	b1, _ := s.Batch(0)
	same := true
	for i := range e0 {
		if e0[i] != b1[i] {
			same = false
		}
	}
	if same {
		t.Fatal("local shuffle did not reshuffle across epochs")
	}
}

func TestLocalShuffleSamplerValidation(t *testing.T) {
	ids := make([]int64, 10)
	if _, err := NewLocalShuffleSampler(SliceIDs(ids), 1, 4, 0, 0); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := NewLocalShuffleSampler(SliceIDs(ids), 1, 4, 7, 1); err == nil {
		t.Fatal("bad rank accepted")
	}
	if _, err := NewLocalShuffleSampler(SliceIDs(ids), 1, 4, 0, 100); err == nil {
		t.Fatal("oversized batch accepted")
	}
	s, err := NewLocalShuffleSampler(SliceIDs(ids), 1, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Batch(0); err == nil {
		t.Fatal("Batch before SetEpoch accepted")
	}
}

func TestLocalShuffleTrainingStaysLocal(t *testing.T) {
	// With LocalShuffle, a DDStore-backed run must issue zero remote gets:
	// every rank's shard... is not aligned with the store chunks in
	// general, so instead verify via a recording loader that each rank only
	// ever requests ids from its own contiguous shard of the split.
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 200})
	w, err := comm.NewWorld(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) error {
		split := NewSplit(200, 3)
		shard := map[int64]bool{}
		sh := ShardFor(split.Train, 4, c.Rank())
		for i := 0; i < sh.Len(); i++ {
			shard[sh.At(i)] = true
		}
		rec := &recordingLoader{inner: &SourceLoader{Source: datasetSource{ds}}}
		_, err := Run(c, Config{
			Loader:       rec,
			LocalBatch:   8,
			Epochs:       2,
			Seed:         3,
			LocalShuffle: true,
			SimModel:     hydra.PaperConfig(3, 0, 1),
		})
		if err != nil {
			return err
		}
		for _, id := range rec.requested {
			if !shard[id] {
				return fmt.Errorf("rank %d requested foreign id %d under local shuffle", c.Rank(), id)
			}
		}
		if len(rec.requested) == 0 {
			return fmt.Errorf("no requests recorded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// datasetSource reads a dataset's samples as wire bytes, as a baseline
// storage backend hands them out, in no modeled time.
type datasetSource struct{ *datasets.Dataset }

func (s datasetSource) AppendSampleTimed(buf []byte, id int64) ([]byte, time.Duration, error) {
	buf, err := s.AppendSample(buf, id)
	return buf, 0, err
}

type recordingLoader struct {
	inner     Loader
	requested []int64
}

func (r *recordingLoader) Len() int { return r.inner.Len() }

func (r *recordingLoader) LoadBatch(ids []int64) (*graph.Batch, []time.Duration, error) {
	r.requested = append(r.requested, ids...)
	return r.inner.LoadBatch(ids)
}

// TestTelemetryAggregationAcrossRanks: every rank's Result carries its
// per-epoch loading times, which sum to exactly what its profiler's
// CPU-Loading region received and fold into one skew row per epoch; span
// recording leaves the run's virtual timings bit-identical, and every
// rank's ring renders into one Chrome trace.
func TestTelemetryAggregationAcrossRanks(t *testing.T) {
	machine := cluster.Perlmutter()
	const n = 4
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 800})
	base := Config{
		LocalBatch:       8,
		Epochs:           2,
		MaxStepsPerEpoch: 4,
		Seed:             3,
		SimModel:         hydra.PaperConfig(ds.NodeFeatDim(), ds.EdgeFeatDim(), ds.OutputDim()),
	}

	run := func(withObs bool) ([]*Result, []*trace.Profiler, []*obs.SpanRing) {
		w, err := comm.NewWorld(n, 77, comm.WithMachine(machine))
		if err != nil {
			t.Fatal(err)
		}
		rings := make([]*obs.SpanRing, n)
		results := make([]*Result, n)
		profs := make([]*trace.Profiler, n)
		err = w.Run(func(c *comm.Comm) error {
			st, err := core.Open(c, ds, core.Options{})
			if err != nil {
				return err
			}
			cfg := base
			cfg.Loader = &PlaneLoader{Plane: st}
			profs[c.Rank()] = trace.New()
			cfg.Profiler = profs[c.Rank()]
			if withObs {
				cfg.Spans = obs.NewSpanRing(1024, c.Rank())
				rings[c.Rank()] = cfg.Spans
			}
			r, err := Run(c, cfg)
			results[c.Rank()] = r
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return results, profs, rings
	}

	results, profs, rings := run(true)
	plain, _, _ := run(false)

	if results[0].TotalDuration != plain[0].TotalDuration {
		t.Fatalf("spans perturbed virtual time: %v with vs %v without",
			results[0].TotalDuration, plain[0].TotalDuration)
	}

	loading := make([][]time.Duration, n)
	for rank, r := range results {
		if len(r.Loading) != base.Epochs {
			t.Fatalf("rank %d: %d loading times, want one per epoch (%d)", rank, len(r.Loading), base.Epochs)
		}
		var sum time.Duration
		for _, d := range r.Loading {
			sum += d
		}
		if want := profs[rank].Get(trace.RegionLoading).Total; sum == 0 || sum != want {
			t.Fatalf("rank %d: loading times sum to %v, profiler %s total %v", rank, sum, trace.RegionLoading, want)
		}
		loading[rank] = r.Loading
	}
	skew := LoadingSkew(loading)
	if len(skew) != base.Epochs {
		t.Fatalf("%d skew rows, want one per epoch (%d)", len(skew), base.Epochs)
	}
	for _, e := range skew {
		if e.Mean <= 0 || e.Max < e.Mean || e.Min > e.Mean {
			t.Fatalf("inconsistent epoch skew: %+v", e)
		}
	}

	// Every rank's span ring saw training-loop spans with epoch/step tags,
	// and the rings render as one valid Chrome trace.
	for rank, ring := range rings {
		if ring.Len() == 0 {
			t.Fatalf("rank %d recorded no spans", rank)
		}
		var sawLoad bool
		for _, s := range ring.Spans() {
			if s.Name == "load-batch" && s.Rank == rank {
				sawLoad = true
			}
		}
		if !sawLoad {
			t.Fatalf("rank %d has no load-batch span", rank)
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rings...); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("exported trace is not valid JSON")
	}
}

// TestLoadingSkewAndStragglers: the skew is computed per epoch over the
// ranks, and a rank is a straggler only in an epoch where it loads for more
// than StragglerFactor x that epoch's mean.
func TestLoadingSkewAndStragglers(t *testing.T) {
	ms := time.Millisecond
	// Epoch 0: rank 3 loads 10x longer than the others. Epoch 1: even.
	skew := LoadingSkew([][]time.Duration{
		{100 * ms, 200 * ms},
		{100 * ms, 200 * ms},
		{100 * ms, 200 * ms},
		{time.Second, 200 * ms},
	})
	if len(skew) != 2 {
		t.Fatalf("%d epochs, want 2", len(skew))
	}
	e0 := skew[0]
	if e0.Epoch != 0 || e0.MaxRank != 3 || e0.Max != time.Second {
		t.Fatalf("epoch 0 max: rank=%d dur=%v", e0.MaxRank, e0.Max)
	}
	if e0.Min != 100*ms || e0.MinRank != 0 {
		t.Fatalf("epoch 0 min: rank=%d dur=%v", e0.MinRank, e0.Min)
	}
	if want := 325 * ms; e0.Mean != want {
		t.Fatalf("epoch 0 mean = %v, want %v", e0.Mean, want)
	}
	if len(e0.Stragglers) != 1 || e0.Stragglers[0] != 3 {
		t.Fatalf("epoch 0 stragglers = %v, want [3]", e0.Stragglers)
	}
	e1 := skew[1]
	if e1.Epoch != 1 || e1.Mean != 200*ms || e1.Min != 200*ms || e1.Max != 200*ms {
		t.Fatalf("epoch 1 not even: %+v", e1)
	}
	if len(e1.Stragglers) != 0 {
		t.Fatalf("epoch 1 stragglers = %v, want none", e1.Stragglers)
	}
	if LoadingSkew(nil) != nil {
		t.Fatal("no ranks must give no rows")
	}
}

// TestTracedLoaderOnTrainingPath: the trainer reads batches through
// LoadBatch, so a traced PlaneLoader must open one "load-batch" root span
// per step there, and the engine's "fetch-owner" spans must hang off it.
func TestTracedLoaderOnTrainingPath(t *testing.T) {
	const n = 2
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 200})
	w, err := comm.NewWorld(n, 5, comm.WithMachine(cluster.Perlmutter()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) error {
		ring := obs.NewSpanRing(1024, c.Rank())
		st, err := core.Open(c, ds, core.Options{Spans: ring})
		if err != nil {
			return err
		}
		res, err := Run(c, Config{
			Loader:           &PlaneLoader{Plane: st, Trace: true, Spans: ring},
			LocalBatch:       8,
			Epochs:           2,
			MaxStepsPerEpoch: 3,
			Seed:             1,
			SimModel:         hydra.PaperConfig(ds.NodeFeatDim(), ds.EdgeFeatDim(), ds.OutputDim()),
		})
		if err != nil {
			return err
		}
		steps := 0
		for _, e := range res.Epochs {
			steps += e.Steps
		}
		roots := map[uint64]uint64{} // trace id -> root span id
		fetches := 0
		for _, s := range ring.Spans() {
			if s.Name == "load-batch" {
				if s.TraceID == 0 {
					return fmt.Errorf("rank %d: load-batch span carries no trace id", c.Rank())
				}
				roots[s.TraceID] = s.SpanID
			}
		}
		for _, s := range ring.Spans() {
			if s.Name != "fetch-owner" {
				continue
			}
			fetches++
			if root, ok := roots[s.TraceID]; !ok || s.ParentID != root {
				return fmt.Errorf("rank %d: fetch-owner span (trace %x, parent %x) is not under a load-batch root",
					c.Rank(), s.TraceID, s.ParentID)
			}
		}
		if len(roots) != steps || steps == 0 {
			return fmt.Errorf("rank %d: %d load-batch root spans for %d steps", c.Rank(), len(roots), steps)
		}
		if fetches == 0 {
			return fmt.Errorf("rank %d: no fetch-owner spans recorded", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

package ddp

import (
	"fmt"
	"time"

	"ddstore/internal/comm"
	"ddstore/internal/graph"
	"ddstore/internal/hydra"
	"ddstore/internal/obs"
	"ddstore/internal/optim"
	"ddstore/internal/trace"
)

// Config configures one rank's participation in a DDP training run. All
// ranks must pass identical values (except Loader, which is per-rank
// state).
type Config struct {
	// Loader produces batches for this rank.
	Loader Loader
	// LocalBatch is the per-GPU batch size (the paper uses 128).
	LocalBatch int
	// Epochs to train.
	Epochs int
	// MaxStepsPerEpoch truncates long epochs (0 = no limit) so at-scale
	// simulations stay cheap; throughput metrics use executed steps only.
	MaxStepsPerEpoch int
	// Seed drives the split and the per-epoch global shuffles.
	Seed uint64
	// LocalShuffle switches from DDStore's global shuffling to the
	// conventional sharding-with-local-shuffling baseline of §2.2: each
	// rank only ever samples its own contiguous shard. Data loading becomes
	// all-local, but samples never mix across ranks.
	LocalShuffle bool

	// Model, when set, is trained for real: forward/backward/optimizer math
	// runs and gradients are allreduced (the convergence experiment).
	Model *hydra.Model
	// LR is the initial learning rate for the real model (paper: 1e-3).
	LR float64
	// Plateau, when true, attaches a ReduceLROnPlateau(0.5, patience 10)
	// scheduler driven by validation loss.
	Plateau bool
	// Eval, when true, computes validation/test losses each epoch (real
	// model only).
	Eval bool

	// SimModel describes the model for simulated compute: only its flop and
	// parameter-count estimates are used, no weights are allocated. Ignored
	// when Model is set.
	SimModel hydra.Config

	// Profiler receives per-region timings (virtual time). Optional.
	Profiler *trace.Profiler
	// KeepLatencies retains every per-sample load latency in the result
	// (for the CDF experiments).
	KeepLatencies bool
	// Spans, when set, receives one span per training-loop stage per step
	// (load, batch, forward, backward, comm, optimizer) on this rank's
	// timeline, for the Chrome trace export. Per-rank state.
	Spans *obs.SpanRing
}

// EpochStats summarizes one epoch on this rank.
type EpochStats struct {
	Epoch      int
	TrainLoss  float64 // globally averaged (real model only)
	ValLoss    float64
	TestLoss   float64
	Steps      int
	Samples    int           // global samples consumed this epoch
	Duration   time.Duration // virtual wall time of the epoch (synchronized)
	Throughput float64       // global samples per virtual second
	LRDecayed  bool          // scheduler fired at the end of this epoch
}

// Result is one rank's view of the run. Epoch-level numbers are identical
// on every rank (they are produced by collectives).
type Result struct {
	Epochs    []EpochStats
	Latencies []time.Duration // per-sample load latencies, if requested
	// Loading is this rank's data-loading time per epoch: the sum of the
	// per-step load times the Profiler's CPU-Loading region receives.
	Loading []time.Duration
	// TotalDuration is the synchronized virtual time of the whole run,
	// less its validation and test passes (Config.Eval).
	TotalDuration time.Duration
	// MeanThroughput is the global samples/sec over all epochs: their
	// samples over TotalDuration.
	MeanThroughput float64
}

// StragglerFactor flags a rank as a straggler when its loading time in an
// epoch exceeds this multiple of the epoch's mean over all ranks.
const StragglerFactor = 1.5

// EpochSkew summarizes one epoch's per-rank loading-time spread.
type EpochSkew struct {
	Epoch            int
	Mean, Min, Max   time.Duration
	MinRank, MaxRank int
	Stragglers       []int // ranks above StragglerFactor x Mean
}

// LoadingSkew folds every rank's Result.Loading, indexed [rank][epoch],
// into one EpochSkew per epoch.
func LoadingSkew(loading [][]time.Duration) []EpochSkew {
	if len(loading) == 0 {
		return nil
	}
	out := make([]EpochSkew, len(loading[0]))
	for epoch := range out {
		sk := EpochSkew{Epoch: epoch, Min: loading[0][epoch], Max: loading[0][epoch]}
		var sum time.Duration
		for rank, per := range loading {
			d := per[epoch]
			sum += d
			if d < sk.Min {
				sk.Min, sk.MinRank = d, rank
			}
			if d > sk.Max {
				sk.Max, sk.MaxRank = d, rank
			}
		}
		sk.Mean = sum / time.Duration(len(loading))
		if sk.Mean > 0 {
			for rank, per := range loading {
				if float64(per[epoch]) > StragglerFactor*float64(sk.Mean) {
					sk.Stragglers = append(sk.Stragglers, rank)
				}
			}
		}
		out[epoch] = sk
	}
	return out
}

// Run executes the training loop on this rank. Call it from every rank of
// the communicator (inside World.Run).
func Run(c *comm.Comm, cfg Config) (*Result, error) {
	if cfg.Loader == nil {
		return nil, fmt.Errorf("ddp: no loader")
	}
	if cfg.LocalBatch <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("ddp: batch %d and epochs %d must be positive", cfg.LocalBatch, cfg.Epochs)
	}
	split := NewSplit(cfg.Loader.Len(), cfg.Seed)
	var sampler interface {
		StepsPerEpoch() int
		SetEpoch(int)
		Batch(int) ([]int64, error)
	}
	var err error
	if cfg.LocalShuffle {
		sampler, err = NewLocalShuffleSampler(split.Train, cfg.Seed, c.Size(), c.Rank(), cfg.LocalBatch)
	} else {
		sampler, err = NewGlobalShuffleSampler(split.Train, cfg.Seed, c.Size(), c.Rank(), cfg.LocalBatch)
	}
	if err != nil {
		return nil, err
	}

	var opt *optim.AdamW
	var sched *optim.ReduceLROnPlateau
	gradBytes := int64(hydra.ParamCount(cfg.SimModel)) * 4
	params := 0
	if cfg.Model != nil {
		lr := cfg.LR
		if lr == 0 {
			lr = 1e-3
		}
		opt = optim.NewAdamW(cfg.Model.Params(), lr)
		if cfg.Plateau {
			sched = optim.NewReduceLROnPlateau(opt, 0.5, 10)
		}
		gradBytes = cfg.Model.GradBytes()
		params = cfg.Model.NumParams()
	} else {
		params = hydra.ParamCount(cfg.SimModel)
	}

	res := &Result{}
	prof := cfg.Profiler
	machine := c.Machine()
	clock := c.Clock()

	// gpuDone tracks this rank's GPU-stream completion time of the previous
	// step (virtual). The rank clock itself is the CPU/loader timeline.
	var gpuDone time.Duration
	var gradBuf []float32
	runStart := clock.Now()
	var evalTime time.Duration // the validation and test passes, left out of TotalDuration

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		sampler.SetEpoch(epoch)
		steps := sampler.StepsPerEpoch()
		if cfg.MaxStepsPerEpoch > 0 && steps > cfg.MaxStepsPerEpoch {
			steps = cfg.MaxStepsPerEpoch
		}
		if err := c.Barrier(); err != nil {
			return nil, err
		}
		epochStart := clock.Now()
		if gpuDone < epochStart {
			gpuDone = epochStart
		}
		var lossSum float64
		var loading time.Duration

		for step := 0; step < steps; step++ {
			if cfg.Spans != nil {
				cfg.Spans.SetContext(epoch, step)
			}
			ids, err := sampler.Batch(step)
			if err != nil {
				return nil, err
			}

			// --- CPU: load + batch (charges the rank clock). ---
			loadStart := clock.Now()
			batch, lats, err := cfg.Loader.LoadBatch(ids)
			if err != nil {
				return nil, fmt.Errorf("ddp: rank %d step %d: %w", c.Rank(), step, err)
			}
			loadDone := clock.Now()
			if cfg.KeepLatencies && lats != nil {
				res.Latencies = append(res.Latencies, lats...)
			}
			if batch == nil { // an empty load: nothing to train on, but every collective still runs
				batch = new(graph.Batch)
			}
			if machine != nil {
				clock.Advance(machine.CPUBatch(batch.NumGraphs, batch.Bytes()))
			}
			cpuDone := clock.Now()
			loading += loadDone - loadStart
			if prof != nil {
				prof.Add(trace.RegionLoading, loadDone-loadStart)
				prof.Add(trace.RegionBatching, cpuDone-loadDone)
			}
			if cfg.Spans != nil {
				cfg.Spans.Record(obs.Span{Name: "load-batch", Cat: "train", Owner: -1,
					Samples: len(ids), Start: loadStart, Dur: loadDone - loadStart})
				cfg.Spans.Record(obs.Span{Name: "cpu-batch", Cat: "train", Owner: -1,
					Samples: len(ids), Bytes: batch.Bytes(), Start: loadDone, Dur: cpuDone - loadDone})
			}

			// --- GPU: forward + backward. ---
			var loss float64
			if cfg.Model != nil {
				opt.ZeroGrad()
				if batch.NumGraphs > 0 {
					loss = cfg.Model.TrainStep(batch)
					lossSum += loss
				}
			}
			var gpuCost time.Duration
			if machine != nil {
				flops := hydra.FlopsEstimate(cfg.SimModel, batch.NumNodes, batch.NumEdges(), batch.NumGraphs)
				if cfg.Model != nil {
					flops = cfg.Model.FlopsPerBatch(batch.NumNodes, batch.NumEdges(), batch.NumGraphs)
				}
				gpuCost = machine.GPUCompute(flops)
			}
			gpuStart := cpuDone
			if gpuDone > gpuStart {
				gpuStart = gpuDone
			}
			backwardDone := gpuStart + gpuCost
			if prof != nil {
				prof.Add(trace.RegionForward, gpuCost/3)
				prof.Add(trace.RegionBackward, gpuCost-gpuCost/3)
			}

			// --- Gradient aggregation (allreduce). The maximum across
			// ranks models the synchronization stall: a straggler's slow
			// load delays everyone, which the paper identifies as the main
			// source of GPU-Comm time for PFF/CFF. ---
			if cfg.Model != nil {
				gradBuf = cfg.Model.FlattenGrads(gradBuf)
				if err := c.AllreduceFloat32(gradBuf, comm.OpSum); err != nil {
					return nil, err
				}
				cfg.Model.UnflattenGrads(gradBuf, 1/float32(c.Size()))
			}
			globalDone := backwardDone
			if c.Size() > 1 {
				maxv, err := c.Allreduce([]float64{backwardDone.Seconds()}, comm.OpMax)
				if err != nil {
					return nil, err
				}
				globalDone = time.Duration(maxv[0] * float64(time.Second))
			}
			var arCost, optCost time.Duration
			if machine != nil {
				arCost = machine.Allreduce(gradBytes, c.Size())
				optCost = machine.OptimizerStep(params)
			}
			commDone := globalDone + arCost
			if prof != nil {
				prof.Add(trace.RegionComm, commDone-backwardDone)
				prof.Add(trace.RegionOptimizer, optCost)
			}
			if cfg.Model != nil {
				opt.Step()
			}
			gpuDone = commDone + optCost
			if cfg.Spans != nil {
				fwdDone := gpuStart + gpuCost/3
				cfg.Spans.Record(obs.Span{Name: "gpu-forward", Cat: "gpu", Owner: -1,
					Samples: len(ids), Start: gpuStart, Dur: fwdDone - gpuStart})
				cfg.Spans.Record(obs.Span{Name: "gpu-backward", Cat: "gpu", Owner: -1,
					Samples: len(ids), Start: fwdDone, Dur: backwardDone - fwdDone})
				cfg.Spans.Record(obs.Span{Name: "gpu-comm", Cat: "gpu", Owner: -1,
					Bytes: gradBytes, Start: backwardDone, Dur: commDone - backwardDone})
				cfg.Spans.Record(obs.Span{Name: "optimizer", Cat: "gpu", Owner: -1,
					Start: commDone, Dur: optCost})
			}

			// The CPU may prefetch the next batch as soon as the GPU starts
			// consuming this one (queue depth 1): wait until then, not until
			// the whole step completes.
			clock.AdvanceTo(gpuStart)
		}

		// Epoch boundary: everyone drains to the last step's completion.
		clock.AdvanceTo(gpuDone)
		if err := c.Barrier(); err != nil {
			return nil, err
		}
		epochEnd := clock.Now()

		st := EpochStats{
			Epoch:   epoch,
			Steps:   steps,
			Samples: steps * cfg.LocalBatch * c.Size(),
		}
		st.Duration = epochEnd - epochStart
		if st.Duration > 0 {
			st.Throughput = float64(st.Samples) / st.Duration.Seconds()
		}
		if cfg.Model != nil && steps > 0 {
			// Average the local mean losses across ranks.
			sum, err := c.Allreduce([]float64{lossSum / float64(steps)}, comm.OpSum)
			if err != nil {
				return nil, err
			}
			st.TrainLoss = sum[0] / float64(c.Size())
			if cfg.Eval {
				evalStart := clock.Now()
				if st.ValLoss, err = evalShard(c, cfg, split.Val); err != nil {
					return nil, err
				}
				if st.TestLoss, err = evalShard(c, cfg, split.Test); err != nil {
					return nil, err
				}
				evalTime += clock.Now() - evalStart
				if sched != nil {
					st.LRDecayed = sched.Step(st.ValLoss)
				}
			}
		}
		res.Epochs = append(res.Epochs, st)
		res.Loading = append(res.Loading, loading)
	}
	res.TotalDuration = clock.Now() - runStart - evalTime
	var totalSamples int
	for _, e := range res.Epochs {
		totalSamples += e.Samples
	}
	if res.TotalDuration > 0 {
		res.MeanThroughput = float64(totalSamples) / res.TotalDuration.Seconds()
	}
	return res, nil
}

// evalShard computes the global average loss over the given ids: each rank
// evaluates its shard in eval-batch chunks, then losses are averaged by
// sample count. Every rank runs as many loads as the largest shard (rank
// 0's) needs, a short rank padding with empty ones: a two-sided store loads
// collectively, so a rank that stopped early would leave the others in an
// exchange it never enters.
func evalShard(c *comm.Comm, cfg Config, ids IDs) (float64, error) {
	shard := ShardFor(ids, c.Size(), c.Rank())
	loads := (ShardFor(ids, c.Size(), 0).Len() + cfg.LocalBatch - 1) / cfg.LocalBatch
	var lossSum float64
	var count int
	batchIDs := make([]int64, 0, cfg.LocalBatch)
	for k := 0; k < loads; k++ {
		lo := min(k*cfg.LocalBatch, shard.Len())
		hi := min(lo+cfg.LocalBatch, shard.Len())
		batchIDs = batchIDs[:0]
		for i := lo; i < hi; i++ {
			batchIDs = append(batchIDs, shard.At(i))
		}
		batch, _, err := cfg.Loader.LoadBatch(batchIDs)
		if err != nil {
			return 0, err
		}
		if batch == nil {
			continue
		}
		lossSum += cfg.Model.EvalLoss(batch) * float64(hi-lo)
		count += hi - lo
	}
	out, err := c.Allreduce([]float64{lossSum, float64(count)}, comm.OpSum)
	if err != nil {
		return 0, err
	}
	if out[1] == 0 {
		return 0, nil
	}
	return out[0] / out[1], nil
}

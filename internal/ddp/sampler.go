// Package ddp implements the five-step distributed-data-parallel training
// loop of the paper's Fig. 1 — data loading, forward, backward, gradient
// aggregation, optimization — on top of the comm runtime, with the global
// shuffling DDStore exists to make cheap: every epoch the whole dataset is
// re-permuted across all ranks, not just within per-rank shards.
package ddp

import (
	"fmt"
)

// Split holds the train/validation/test partition of a dataset (the paper
// uses 80% / 10% / 10%). The partition is lazy: a seeded pseudorandom
// permutation of the ids is windowed into the three parts, so a Split costs
// O(1) memory regardless of dataset size.
type Split struct {
	Train IDs
	Val   IDs
	Test  IDs
}

// NewSplit partitions [0, total) deterministically: a seeded shuffle, then
// 80/10/10. Every rank computes the same split from the same seed.
func NewSplit(total int, seed uint64) Split {
	perm := NewPermutation(int64(total), seed^0xA5A5A5A5)
	nTrain := total * 8 / 10
	nVal := total / 10
	nTest := total - nTrain - nVal
	base := rangeIDs(total)
	return Split{
		Train: permView{base: base, perm: perm, off: 0, n: nTrain},
		Val:   permView{base: base, perm: perm, off: int64(nTrain), n: nVal},
		Test:  permView{base: base, perm: perm, off: int64(nTrain + nVal), n: nTest},
	}
}

// GlobalShuffleSampler deals out globally shuffled batches: each epoch the
// training ids are re-permuted with a seed shared by all ranks, and step s
// hands rank r the window
//
//	perm[(s*N + r)*B : (s*N + r + 1)*B]
//
// so the union over ranks of one step is a contiguous window of the global
// permutation — exactly the access pattern that makes PFF/CFF loading
// random and DDStore loading a batch of remote Gets. The permutation is a
// Feistel network (see Permutation), so no rank materializes it.
type GlobalShuffleSampler struct {
	ids        IDs
	seed       uint64
	worldSize  int
	rank       int
	localBatch int

	epoch int
	perm  Permutation
}

// NewGlobalShuffleSampler creates a sampler for one rank.
func NewGlobalShuffleSampler(ids IDs, seed uint64, worldSize, rank, localBatch int) (*GlobalShuffleSampler, error) {
	if localBatch <= 0 {
		return nil, fmt.Errorf("ddp: local batch %d must be positive", localBatch)
	}
	if rank < 0 || rank >= worldSize {
		return nil, fmt.Errorf("ddp: rank %d out of range [0,%d)", rank, worldSize)
	}
	if ids.Len() < worldSize*localBatch {
		return nil, fmt.Errorf("ddp: %d training samples cannot fill one global batch of %d×%d",
			ids.Len(), worldSize, localBatch)
	}
	return &GlobalShuffleSampler{
		ids:        ids,
		seed:       seed,
		worldSize:  worldSize,
		rank:       rank,
		localBatch: localBatch,
		epoch:      -1,
	}, nil
}

// StepsPerEpoch returns how many full global batches one epoch yields.
func (s *GlobalShuffleSampler) StepsPerEpoch() int {
	return s.ids.Len() / (s.worldSize * s.localBatch)
}

// SetEpoch re-shuffles for the given epoch. All ranks derive the identical
// permutation from (seed, epoch).
func (s *GlobalShuffleSampler) SetEpoch(epoch int) {
	if s.epoch == epoch {
		return
	}
	s.epoch = epoch
	s.perm = NewPermutation(int64(s.ids.Len()), s.seed+uint64(epoch)*0x9E3779B97F4A7C15)
}

// Batch returns this rank's sample ids for the given step of the current
// epoch.
func (s *GlobalShuffleSampler) Batch(step int) ([]int64, error) {
	if s.epoch < 0 {
		return nil, fmt.Errorf("ddp: SetEpoch not called")
	}
	if step < 0 || step >= s.StepsPerEpoch() {
		return nil, fmt.Errorf("ddp: step %d out of range [0,%d)", step, s.StepsPerEpoch())
	}
	start := int64(step*s.worldSize+s.rank) * int64(s.localBatch)
	out := make([]int64, s.localBatch)
	for j := range out {
		out[j] = s.ids.At(int(s.perm.Apply(start + int64(j))))
	}
	return out, nil
}

// ShardFor returns the contiguous shard of ids assigned to rank for
// evaluation (validation/test): a plain balanced split, no shuffling.
func ShardFor(ids IDs, worldSize, rank int) IDs {
	per := ids.Len() / worldSize
	rem := ids.Len() % worldSize
	lo := rank*per + min(rank, rem)
	hi := lo + per
	if rank < rem {
		hi++
	}
	return subView{base: ids, off: lo, nn: hi - lo}
}

// LocalShuffleSampler implements the conventional "data sharding with local
// shuffling" scheme the paper's §2.2 contrasts DDStore against: the
// training ids are split once into per-rank shards, and each epoch only
// shuffles *within* the rank's own shard. No cross-rank data movement is
// ever needed — but samples never mix across ranks, the model-generality
// problem that motivates global shuffling, and changing the rank count
// forces a full re-shard.
type LocalShuffleSampler struct {
	shard      IDs
	seed       uint64
	localBatch int

	epoch int
	perm  Permutation
}

// NewLocalShuffleSampler creates the sampler for one rank: its shard is the
// balanced contiguous slice of ids.
func NewLocalShuffleSampler(ids IDs, seed uint64, worldSize, rank, localBatch int) (*LocalShuffleSampler, error) {
	if localBatch <= 0 {
		return nil, fmt.Errorf("ddp: local batch %d must be positive", localBatch)
	}
	if rank < 0 || rank >= worldSize {
		return nil, fmt.Errorf("ddp: rank %d out of range [0,%d)", rank, worldSize)
	}
	shard := ShardFor(ids, worldSize, rank)
	if shard.Len() < localBatch {
		return nil, fmt.Errorf("ddp: shard of %d samples cannot fill a batch of %d", shard.Len(), localBatch)
	}
	return &LocalShuffleSampler{
		shard:      shard,
		seed:       seed,
		localBatch: localBatch,
		epoch:      -1,
	}, nil
}

// StepsPerEpoch returns how many local batches one epoch yields.
func (s *LocalShuffleSampler) StepsPerEpoch() int { return s.shard.Len() / s.localBatch }

// SetEpoch re-shuffles the local shard for the given epoch.
func (s *LocalShuffleSampler) SetEpoch(epoch int) {
	if s.epoch == epoch {
		return
	}
	s.epoch = epoch
	s.perm = NewPermutation(int64(s.shard.Len()), s.seed+uint64(epoch)*0x9E3779B97F4A7C15+0x1234)
}

// Batch returns this rank's sample ids for the given step.
func (s *LocalShuffleSampler) Batch(step int) ([]int64, error) {
	if s.epoch < 0 {
		return nil, fmt.Errorf("ddp: SetEpoch not called")
	}
	if step < 0 || step >= s.StepsPerEpoch() {
		return nil, fmt.Errorf("ddp: step %d out of range [0,%d)", step, s.StepsPerEpoch())
	}
	out := make([]int64, s.localBatch)
	base := int64(step * s.localBatch)
	for j := range out {
		out[j] = s.shard.At(int(s.perm.Apply(base + int64(j))))
	}
	return out, nil
}

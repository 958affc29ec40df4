// Package cluster models the two supercomputers the paper evaluates on —
// Summit (ORNL) and Perlmutter (NERSC) — as sets of performance parameters
// plus pure cost functions. The simulated runtime (internal/comm,
// internal/pfs, internal/ddp) executes the real DDStore code and charges the
// modeled cost of every I/O, network, and compute operation to per-rank
// virtual clocks.
//
// Parameter calibration: the distributions are chosen so that the per-graph
// load latencies land in the regimes reported by the paper (Table 2): a
// parallel-filesystem metadata+read operation has a median of a few
// milliseconds with a long tail, an inter-node RMA Get of a small sample
// costs a few hundred microseconds, and an intra-node or local fetch costs
// tens of microseconds. Absolute values are documented per machine below and
// recorded in EXPERIMENTS.md.
package cluster

import (
	"fmt"
	"math"
	"strings"
	"time"

	"ddstore/internal/vtime"
)

// Machine describes one supercomputer's node architecture and calibrated
// performance parameters. All bandwidths are bytes/second.
type Machine struct {
	Name        string
	GPUsPerNode int
	CPUsPerNode int
	MaxNodes    int
	NodeMemory  int64 // bytes of host DRAM per node

	// GPUTflops is the *effective* fp32 throughput per GPU on graph
	// message-passing workloads, used to convert a flop estimate into
	// compute time. Sparse gather/scatter kernels run far below peak
	// (5–10%), which is why these values are well under the cards'
	// datasheet numbers.
	GPUTflops float64

	// Network parameters. "Intra" is within a node (NVLink / shared memory),
	// "Inter" is across nodes (EDR InfiniBand on Summit, Slingshot on
	// Perlmutter).
	IntraNodeLatency   time.Duration
	IntraNodeBandwidth float64
	InterNodeLatency   time.Duration
	InterNodeBandwidth float64

	// RMAOverhead is the fixed software cost of a one-sided operation
	// (window lock bookkeeping, completion check) beyond the raw transfer.
	RMAOverhead time.Duration

	// NetJitterSigma is the log-normal sigma of multiplicative noise on
	// network operations (congestion, adaptive routing); median factor is 1.
	// It produces the latency tails visible in the paper's CDFs and the
	// straggler-induced GPU-Comm inflation.
	NetJitterSigma float64

	// Parallel filesystem parameters (GPFS "Alpine" on Summit, Lustre on
	// Perlmutter). FSMetadata is the cost of an open/stat on the shared
	// filesystem; FSSeek the cost of positioning inside an already-open
	// file; FSBandwidth the per-process streaming bandwidth with no
	// contention.
	FSMetadata  vtime.LogNormal
	FSSeek      vtime.LogNormal
	FSBandwidth float64

	// FSContentionAlpha controls how shared-filesystem latency degrades as
	// more processes hammer it concurrently: effective latency is scaled by
	// 1 + alpha*log2(readers). A log law matches the observed gentle
	// degradation of large parallel filesystems up to the point of
	// saturation.
	FSContentionAlpha float64

	// SharedFileAlpha is the additional congestion multiplier for many
	// readers inside the *same* container file (CFF): lock conflicts on
	// shared stripes grow roughly linearly with the readers per file,
	// saturating at SharedFileMaxMult. Effective multiplier
	// min(1 + alpha*(readersPerFile-1), SharedFileMaxMult).
	SharedFileAlpha   float64
	SharedFileMaxMult float64

	// PageCacheBytes is the per-node OS page cache available for caching
	// file blocks; PageCacheHit is the cost of serving a sample-sized read
	// from the cache.
	PageCacheBytes int64
	PageCacheHit   vtime.LogNormal

	// LocalReadLatency/LocalReadBandwidth model a memcpy from the rank's own
	// in-memory chunk (DDStore local hit).
	LocalReadLatency   time.Duration
	LocalReadBandwidth float64

	// CPUBatchPerSample is the CPU cost of collating one decoded sample into
	// a batch tensor (the paper's "CPU-Batching" phase).
	CPUBatchPerSample time.Duration

	// OptimizerPerParamNs is the cost per parameter of the optimizer step
	// (AdamW update), in nanoseconds. A float because the per-parameter cost
	// is a fraction of a nanosecond.
	OptimizerPerParamNs float64
}

// Summit returns the model of the Summit supercomputer: 2 POWER9 CPUs and
// 6 V100 (16 GB) GPUs per node, 512 GB DRAM, fat-tree EDR InfiniBand, GPFS.
func Summit() *Machine {
	return &Machine{
		Name:        "Summit",
		GPUsPerNode: 6,
		CPUsPerNode: 2,
		MaxNodes:    4608,
		NodeMemory:  512 << 30,
		GPUTflops:   1.0, // V100 effective on PNA message passing

		IntraNodeLatency:   6 * time.Microsecond,
		IntraNodeBandwidth: 40e9, // NVLink2-class
		InterNodeLatency:   110 * time.Microsecond,
		InterNodeBandwidth: 12.5e9, // dual-rail EDR
		RMAOverhead:        60 * time.Microsecond,
		NetJitterSigma:     0.5,

		FSMetadata:        vtime.NewLogNormalMedianP99(1400*time.Microsecond, 3200*time.Microsecond),
		FSSeek:            vtime.NewLogNormalMedianP99(800*time.Microsecond, 2200*time.Microsecond),
		FSBandwidth:       1.6e9,
		FSContentionAlpha: 0.11,
		SharedFileAlpha:   0.7,
		SharedFileMaxMult: 12,

		PageCacheBytes: 256 << 30,
		PageCacheHit:   vtime.NewLogNormalMedianP99(120*time.Microsecond, 600*time.Microsecond),

		LocalReadLatency:   2 * time.Microsecond,
		LocalReadBandwidth: 20e9,

		CPUBatchPerSample:   55 * time.Microsecond,
		OptimizerPerParamNs: 0.35,
	}
}

// Perlmutter returns the model of Perlmutter's GPU partition: 1 EPYC 7763
// and 4 A100 (40 GB) GPUs per node, 256 GB DRAM, Slingshot-10, Lustre.
func Perlmutter() *Machine {
	return &Machine{
		Name:        "Perlmutter",
		GPUsPerNode: 4,
		CPUsPerNode: 1,
		MaxNodes:    1536,
		NodeMemory:  256 << 30,
		GPUTflops:   2.6, // A100 effective on PNA message passing

		IntraNodeLatency:   4 * time.Microsecond,
		IntraNodeBandwidth: 80e9, // NVLink3
		InterNodeLatency:   90 * time.Microsecond,
		InterNodeBandwidth: 22e9, // Slingshot
		RMAOverhead:        45 * time.Microsecond,
		NetJitterSigma:     0.5,

		FSMetadata:        vtime.NewLogNormalMedianP99(900*time.Microsecond, 2100*time.Microsecond),
		FSSeek:            vtime.NewLogNormalMedianP99(500*time.Microsecond, 1700*time.Microsecond),
		FSBandwidth:       2.2e9,
		FSContentionAlpha: 0.13,
		SharedFileAlpha:   0.8,
		SharedFileMaxMult: 12,

		PageCacheBytes: 128 << 30,
		PageCacheHit:   vtime.NewLogNormalMedianP99(95*time.Microsecond, 550*time.Microsecond),

		LocalReadLatency:   1 * time.Microsecond,
		LocalReadBandwidth: 25e9,

		CPUBatchPerSample:   45 * time.Microsecond,
		OptimizerPerParamNs: 0.25,
	}
}

// Laptop returns a tiny machine model used by tests and the quickstart
// example: two "GPUs" per node, fast uniform interconnect, slow disk. The
// point is not realism but exercising every code path cheaply.
func Laptop() *Machine {
	return &Machine{
		Name:        "Laptop",
		GPUsPerNode: 2,
		CPUsPerNode: 1,
		MaxNodes:    8,
		NodeMemory:  16 << 30,
		GPUTflops:   1.0,

		IntraNodeLatency:   2 * time.Microsecond,
		IntraNodeBandwidth: 10e9,
		InterNodeLatency:   30 * time.Microsecond,
		InterNodeBandwidth: 5e9,
		RMAOverhead:        10 * time.Microsecond,
		NetJitterSigma:     0.3,

		FSMetadata:        vtime.NewLogNormalMedianP99(400*time.Microsecond, 1200*time.Microsecond),
		FSSeek:            vtime.NewLogNormalMedianP99(150*time.Microsecond, 500*time.Microsecond),
		FSBandwidth:       0.8e9,
		FSContentionAlpha: 0.2,
		SharedFileAlpha:   0.5,
		SharedFileMaxMult: 8,

		PageCacheBytes: 4 << 30,
		PageCacheHit:   vtime.NewLogNormalMedianP99(40*time.Microsecond, 200*time.Microsecond),

		LocalReadLatency:   1 * time.Microsecond,
		LocalReadBandwidth: 15e9,

		CPUBatchPerSample:   20 * time.Microsecond,
		OptimizerPerParamNs: 0.5,
	}
}

// ByName returns a fresh copy of the named machine model: summit,
// perlmutter or laptop, in any case.
func ByName(name string) (*Machine, error) {
	for _, build := range []func() *Machine{Summit, Perlmutter, Laptop} {
		if m := build(); strings.EqualFold(m.Name, name) {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown machine %q", name)
}

// NodeOf maps a rank to its node index, packing GPUsPerNode consecutive
// ranks per node — the standard jsrun/srun placement the paper uses.
func (m *Machine) NodeOf(rank int) int { return rank / m.GPUsPerNode }

// SameNode reports whether two ranks share a node.
func (m *Machine) SameNode(a, b int) bool { return m.NodeOf(a) == m.NodeOf(b) }

// Nodes returns the number of nodes needed for n ranks.
func (m *Machine) Nodes(n int) int {
	return (n + m.GPUsPerNode - 1) / m.GPUsPerNode
}

// transfer returns latency + bytes/bandwidth.
func transfer(lat time.Duration, bytes int64, bw float64) time.Duration {
	return lat + time.Duration(float64(bytes)/bw*float64(time.Second))
}

// NetTransfer returns the modeled time to move bytes between two ranks using
// point-to-point communication.
func (m *Machine) NetTransfer(bytes int64, sameNode bool) time.Duration {
	if sameNode {
		return transfer(m.IntraNodeLatency, bytes, m.IntraNodeBandwidth)
	}
	return transfer(m.InterNodeLatency, bytes, m.InterNodeBandwidth)
}

// RMALock returns the modeled time to acquire a passive-target window lock
// on a remote rank: one network round-trip plus half the fixed one-sided
// software overhead.
func (m *Machine) RMALock(sameNode bool) time.Duration {
	lat := m.InterNodeLatency
	if sameNode {
		lat = m.IntraNodeLatency
	}
	return m.RMAOverhead/2 + 2*lat
}

// RMATransfer returns the modeled time for one MPI_Get/MPI_Put data movement
// within an already-open access epoch: an issue+completion round-trip plus
// the payload stream plus the remaining software overhead.
func (m *Machine) RMATransfer(bytes int64, sameNode bool) time.Duration {
	lat := m.InterNodeLatency
	bw := m.InterNodeBandwidth
	if sameNode {
		lat = m.IntraNodeLatency
		bw = m.IntraNodeBandwidth
	}
	return m.RMAOverhead/2 + 2*lat + time.Duration(float64(bytes)/bw*float64(time.Second))
}

// LocalRead returns the modeled time to copy bytes out of the rank's own
// in-memory chunk.
func (m *Machine) LocalRead(bytes int64) time.Duration {
	return transfer(m.LocalReadLatency, bytes, m.LocalReadBandwidth)
}

// FSContention returns the latency multiplier for `readers` processes
// concurrently using the shared filesystem.
func (m *Machine) FSContention(readers int) float64 {
	if readers <= 1 {
		return 1
	}
	return 1 + m.FSContentionAlpha*math.Log2(float64(readers))
}

// SharedFileContention returns the extra multiplier for `readers` processes
// inside the same container file: linear growth saturating at
// SharedFileMaxMult (lock convoys stop getting worse once the file servers
// are fully congested).
func (m *Machine) SharedFileContention(readers int) float64 {
	if readers <= 1 {
		return 1
	}
	mult := 1 + m.SharedFileAlpha*float64(readers-1)
	if m.SharedFileMaxMult > 0 && mult > m.SharedFileMaxMult {
		mult = m.SharedFileMaxMult
	}
	return mult
}

// FSRead returns the modeled time for one random read of bytes from the
// shared filesystem, given the number of processes concurrently reading and
// whether a fresh metadata operation (file open) is required. Tail noise
// comes from the calibrated log-normal distributions.
func (m *Machine) FSRead(bytes int64, readers int, openFile bool, rng *vtime.RNG) time.Duration {
	mult := m.FSContention(readers)
	var d time.Duration
	if openFile {
		d += time.Duration(float64(m.FSMetadata.Sample(rng)) * mult)
	}
	d += time.Duration(float64(m.FSSeek.Sample(rng)) * mult)
	d += time.Duration(float64(bytes) / m.FSBandwidth * float64(time.Second) * mult)
	return d
}

// JitterFactor samples the multiplicative network-noise factor: log-normal
// with median 1 and shape NetJitterSigma.
func (m *Machine) JitterFactor(rng *vtime.RNG) float64 {
	if m.NetJitterSigma == 0 {
		return 1
	}
	return math.Exp(m.NetJitterSigma * rng.NormFloat64())
}

// CacheHit returns the modeled time to serve bytes from the OS page cache.
func (m *Machine) CacheHit(bytes int64, rng *vtime.RNG) time.Duration {
	return m.PageCacheHit.Sample(rng) + time.Duration(float64(bytes)/m.LocalReadBandwidth*float64(time.Second))
}

// GPUCompute converts a flop estimate into modeled GPU time.
func (m *Machine) GPUCompute(flops float64) time.Duration {
	return time.Duration(flops / (m.GPUTflops * 1e12) * float64(time.Second))
}

// Allreduce returns the modeled time for a hierarchical (tree/ring hybrid,
// NCCL-style) allreduce of bytes across n ranks: the bandwidth term is the
// ring bound 2(n-1)/n · bytes/BW, while the latency term grows
// logarithmically (2·ceil(log2 n) hops) — a flat ring's 2(n-1) latency
// steps would be hopelessly pessimistic at 1536 GPUs and contradict the
// near-linear scaling both the paper and production NCCL observe.
func (m *Machine) Allreduce(bytes int64, n int) time.Duration {
	if n <= 1 {
		return 0
	}
	lat, bw := m.InterNodeLatency, m.InterNodeBandwidth
	if n <= m.GPUsPerNode {
		lat, bw = m.IntraNodeLatency, m.IntraNodeBandwidth
	}
	hops := 2 * math.Ceil(math.Log2(float64(n)))
	steps := time.Duration(hops) * lat
	vol := 2 * float64(n-1) / float64(n) * float64(bytes)
	return steps + time.Duration(vol/bw*float64(time.Second))
}

// CollectiveLatency returns the modeled synchronization cost of a barrier or
// small-message collective across n ranks (logarithmic tree).
func (m *Machine) CollectiveLatency(n int) time.Duration {
	if n <= 1 {
		return 0
	}
	hops := math.Ceil(math.Log2(float64(n)))
	lat := m.InterNodeLatency
	if n <= m.GPUsPerNode {
		lat = m.IntraNodeLatency
	}
	return time.Duration(hops) * lat
}

// CPUBatch returns the modeled cost of collating n samples totalling bytes
// into a batch.
func (m *Machine) CPUBatch(n int, bytes int64) time.Duration {
	return time.Duration(n)*m.CPUBatchPerSample +
		time.Duration(float64(bytes)/m.LocalReadBandwidth*float64(time.Second))
}

// OptimizerStep returns the modeled cost of updating params parameters.
func (m *Machine) OptimizerStep(params int) time.Duration {
	return time.Duration(float64(params) * m.OptimizerPerParamNs)
}

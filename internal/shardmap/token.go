package shardmap

import "fmt"

// Owner tokens carry the generation a fetch started under. The fetch
// engine's Plane interface speaks plain ints for owners, so the
// generation is packed into the token itself: the low memberBits hold
// the member index and the bits above hold the generation. The TCP plane
// unpacks the token and resolves the member against the generation the
// batch was planned under, which is what pins an in-flight fetch to its
// starting generation even if the map advances mid-flight.
//
// This replaces the old static replica*stride+member arithmetic that was
// recomputed inline in groupPlane.OwnerOf: tokens are now derived from
// the shard map generation, and round-trip exactly up to MaxMember and
// MaxGeneration.
const (
	memberBits = 20
	// MaxMember is the largest member index a token can carry (2^20-1
	// members — three orders of magnitude beyond any deployment here).
	MaxMember = 1<<memberBits - 1
	// MaxGeneration is the largest generation a token can carry. Tokens
	// are ints (≥ 63 usable bits on every supported platform), leaving
	// 43 generation bits: thousands of years of one rebalance per second.
	MaxGeneration = uint64(1)<<(63-memberBits) - 1
)

// PackOwner packs a generation and member index into an owner token.
func PackOwner(gen uint64, member int) (int, error) {
	if member < 0 || member > MaxMember {
		return 0, fmt.Errorf("shardmap: member index %d outside token range [0,%d]", member, MaxMember)
	}
	if gen == 0 || gen > MaxGeneration {
		return 0, fmt.Errorf("shardmap: generation %d outside token range [1,%d]", gen, MaxGeneration)
	}
	return int(gen<<memberBits) | member, nil
}

// UnpackOwner splits an owner token back into generation and member index.
func UnpackOwner(token int) (gen uint64, member int, err error) {
	if token < 0 {
		return 0, 0, fmt.Errorf("shardmap: negative owner token %d", token)
	}
	gen = uint64(token) >> memberBits
	member = token & MaxMember
	if gen == 0 {
		return 0, 0, fmt.Errorf("shardmap: owner token %d carries generation 0", token)
	}
	return gen, member, nil
}

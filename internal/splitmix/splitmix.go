// Package splitmix holds the splitmix64 finalizer that the seeded hashes
// share: shard routing and seed derivation, the fleet's placement ring, and
// the delta levels' bloom probes and strata.
package splitmix

// Mix is splitmix64's finalizer: a cheap, well-distributed 64-bit hash.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

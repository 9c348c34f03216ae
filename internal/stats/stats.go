// Package stats provides the mergeable statistical sketches that back the
// paper's feature-set statistics (Table 3): exact counters, Welford
// mean/variance, approximate percentiles (merging t-digest), distinct counts
// (HyperLogLog), heavy hitters (Space-Saving top-N), fixed-width angular
// histograms (the 30° course/heading bins), and circular means.
//
// Every sketch is a commutative monoid: Merge is associative and commutative
// (within each sketch's approximation tolerance) so reductions can run in any
// order across any partitioning — the property the MapReduce-style feature
// extraction of the paper depends on. Every sketch also has a compact binary
// encoding (AppendBinary / Decode*) used for shuffles and for the inventory
// file format.
package stats

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrCorrupt is returned when a binary sketch encoding cannot be decoded.
var ErrCorrupt = errors.New("stats: corrupt sketch encoding")

// Mix64 is the SplitMix64 finalizer, used to hash integer identifiers
// (MMSIs, trip ids, cell indices) into uniformly distributed 64-bit values
// for the HyperLogLog sketch. It is deterministic across runs so persisted
// sketches remain mergeable.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// --- binary encoding helpers shared by all sketches ---

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func readU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrCorrupt
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

func readU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, ErrCorrupt
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

func readF64(b []byte) (float64, []byte, error) {
	v, rest, err := readU64(b)
	if err != nil {
		return 0, nil, err
	}
	return math.Float64frombits(v), rest, nil
}

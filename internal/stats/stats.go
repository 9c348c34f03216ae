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
//
// Every sketch is flat: a fixed array (AngularHistogram) or one slice
// (TopN's entries, TDigest's sorted centroids plus the points buffered
// behind them, HyperLogLog's sparse entries or dense registers) beside a
// few scalars, with no maps and no pointers to sub-objects, so a summary
// that holds its sketches by value is one allocation plus one slice per
// sketch that has seen something — what the live heap of an inventory is
// made of.
//
// Every encoder is built from two primitives and single bytes. An integer —
// count, length, zero run, key — is an unsigned LEB128 varint (7 bits a byte,
// low group first). A float64 is its IEEE-754 bits with the byte order
// reversed, written as that same varint: the mantissa's low bytes, zero in
// the integer-valued weights, counts and seconds that fill a summary, become
// high bytes a varint does not write (0, 1 or 86 400 take 1–3 bytes, a
// full-precision value 9–10), and every bit pattern round-trips, NaN payloads,
// −0 and ±Inf included. Decoders bound what they allocate by their input: an
// element count the remaining bytes could not hold is ErrCorrupt first.
package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
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

// --- binary encoding primitives shared by all sketches ---

func appendU64(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendU32(b []byte, v uint32) []byte { return binary.AppendUvarint(b, uint64(v)) }

func appendF64(b []byte, v float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(v)))
}

func readU64(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrCorrupt
	}
	return v, b[n:], nil
}

// skipU64s steps over n varints, refusing what n readU64 calls would.
func skipU64s(b []byte, n uint64) ([]byte, error) {
	for ; n > 0; n-- {
		_, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, ErrCorrupt
		}
		b = b[k:]
	}
	return b, nil
}

func readU32(b []byte) (uint32, []byte, error) {
	v, rest, err := readU64(b)
	if err != nil || v > math.MaxUint32 {
		return 0, nil, ErrCorrupt
	}
	return uint32(v), rest, nil
}

func readF64(b []byte) (float64, []byte, error) {
	v, rest, err := readU64(b)
	if err != nil {
		return 0, nil, err
	}
	return math.Float64frombits(bits.ReverseBytes64(v)), rest, nil
}

// Package segment implements the POLSEG1 columnar on-disk inventory
// format: the serving-side answer to the paper's Table-4 compression
// claim, and the only form in which an inventory is written to a disk or
// downloaded by a replica (build output, checkpoint generation, serving
// artifact). A segment holds the groups of a heap inventory, laid out so
// a server can answer cell and OD queries without loading them into
// memory:
//
//   - groups are partitioned into the same 256 hash shards as the
//     in-memory inventory and the dataflow shuffle, one column block per
//     non-empty shard;
//   - inside a block the columns are struct-of-arrays: the sorted key
//     column (fixed 18-byte big-endian keys, binary-searchable), the
//     record-count column, the summary offset column and the summary
//     blob;
//   - every block is DEFLATE-compressed (RFC 1951) and carries its CRC32C
//     and sizes in the footer index, so a reader verifies exactly what it
//     touches and a replica can diff two segments shard-by-shard without
//     opening the blocks;
//   - the footer index plus fixed tail is all that Open reads, making
//     cold start O(index) instead of O(inventory).
//
// File layout, format version 2 (little-endian, keys big-endian for sort
// order):
//
//	header:  magic "POLSEG1\n" | version u32 | resolution u32 |
//	         rawRecords u64 | usedRecords u64 | builtUnix u64 |
//	         descLen u32 | desc bytes
//	blocks:  per non-empty shard, ascending shard id: flate(raw block)
//	         raw block: nGroups u32 | keys nGroups×18 (sorted) |
//	         records nGroups×u64 | offsets (nGroups+1)×u32 | blob
//	index:   nBlocks u32 | nBlocks × ( shard u16 | off u64 | compLen u32 |
//	         rawLen u32 | crc32c u32 | nGroups u32 | nCell u32 |
//	         nCellType u32 | nCellOD u32 )
//	tail:    indexOff u64 | indexLen u32 | indexCRC u32 | headerLen u32 |
//	         headerCRC u32 | totalGroups u64 | magic "POLSEGE\n"
//
// A block is any RFC 1951 stream of its raw block: the format version
// names the layout and the raw bytes, not the encoder. deflate.Deflate
// writes the blocks; files whose blocks compress/flate wrote still read.
// A new encoder moves every block's CRC32C without a version bump, so a
// disk replica's first sync after its primary changes encoder refetches
// every block once; shard deltas resume after that.
//
// The blob is the groups' CellSummary.AppendBinary encodings end to end, in
// key order: a varint record count, then each sketch in the varint and
// byte-reversed-float form internal/stats documents (~340 B a group before
// deflate). Version 1 differed in nothing but those bytes — fixed-width u32,
// u64 and float64 fields, ~730 B a group — and is refused by name
// (ErrOldVersion): nothing outside the tests can decode it.
//
// Every byte of the file is covered by some checksum: the header by
// headerCRC, each block by its index entry, the index by indexCRC, and
// the tail by its magic plus geometry checks against the file size — so
// a single flipped bit anywhere is detected at open or on first touch of
// the damaged block.
//
// Corruption anywhere — truncation, a flipped bit in a block, a garbled
// index — surfaces as a typed error wrapping ErrCorrupt; a segment reader
// never returns silently wrong query results, because every block's
// CRC32C is verified before its bytes are parsed.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/patternsoflife/pol/internal/deflate"
	"github.com/patternsoflife/pol/internal/inventory"
)

var (
	segMagic  = []byte("POLSEG1\n")
	tailMagic = []byte("POLSEGE\n")
)

const segVersion = 2

// Errors returned on malformed segments. All wrap ErrCorrupt, so callers
// that only care about "is this file damaged" can errors.Is against the
// one sentinel; the finer sentinels distinguish the failure mode in tests
// and logs.
var (
	// ErrCorrupt is the root sentinel for any malformed-segment error.
	ErrCorrupt = errors.New("corrupt segment")
	// ErrTruncated wraps ErrCorrupt: the file ends before a structure does.
	ErrTruncated = fmt.Errorf("truncated: %w", ErrCorrupt)
	// ErrChecksum wraps ErrCorrupt: stored and computed CRC32C disagree.
	ErrChecksum = fmt.Errorf("checksum mismatch: %w", ErrCorrupt)
	// ErrBadMagic wraps ErrCorrupt: header or tail magic is wrong.
	ErrBadMagic = fmt.Errorf("bad magic: %w", ErrCorrupt)
	// ErrOldVersion wraps ErrCorrupt: an intact segment of format version 1,
	// whose fixed-width summary encoding nothing here decodes.
	ErrOldVersion = fmt.Errorf("POLSEG1 version 1 segments are no longer read; rebuild with polbuild: %w", ErrCorrupt)
)

// crcTable is the Castagnoli table, matching the checkpoint manifests.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CRC returns the CRC32C (Castagnoli) of b — the same polynomial the
// checkpoint manifests and block index use.
func CRC(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

const (
	headerFixedLen = 8 + 4 + 4 + 8 + 8 + 8 + 4 // magic..descLen, before desc
	indexEntryLen  = 2 + 8 + 4 + 4 + 4 + 4 + 3*4

	// TailLen is the fixed byte length of the segment tail. A replica
	// fetches exactly the last TailLen bytes of a remote segment to learn
	// where the index lives.
	TailLen = 8 + 4 + 4 + 4 + 4 + 8 + 8
)

// BlockInfo describes one shard's column block as recorded in the footer
// index: where its compressed bytes live, their CRC32C, and the group
// counts per grouping set. Two segments' blocks for the same shard with
// equal (CompLen, CRC) hold identical bytes for delta-sync purposes.
type BlockInfo struct {
	Shard   int    // shard id, 0..inventory.ShardCount-1
	Off     int64  // absolute file offset of the compressed block
	CompLen uint32 // compressed byte length
	RawLen  uint32 // decompressed byte length
	CRC     uint32 // CRC32C of the compressed bytes
	NGroups uint32 // groups in the block
	NSet    [3]uint32
}

// Tail is the decoded fixed-size segment tail.
type Tail struct {
	IndexOff    int64
	IndexLen    int
	IndexCRC    uint32
	HeaderLen   int
	HeaderCRC   uint32
	TotalGroups int64
}

// ParseTail decodes the fixed-size tail from the final TailLen bytes of a
// segment and sanity-checks its geometry against the total file size.
func ParseTail(b []byte, fileSize int64) (Tail, error) {
	if len(b) != TailLen {
		return Tail{}, fmt.Errorf("segment: tail is %d bytes, want %d: %w", len(b), TailLen, ErrTruncated)
	}
	if string(b[TailLen-8:]) != string(tailMagic) {
		return Tail{}, fmt.Errorf("segment: tail magic %q: %w", b[TailLen-8:], ErrBadMagic)
	}
	t := Tail{
		IndexOff:    int64(binary.LittleEndian.Uint64(b[0:8])),
		IndexLen:    int(binary.LittleEndian.Uint32(b[8:12])),
		IndexCRC:    binary.LittleEndian.Uint32(b[12:16]),
		HeaderLen:   int(binary.LittleEndian.Uint32(b[16:20])),
		HeaderCRC:   binary.LittleEndian.Uint32(b[20:24]),
		TotalGroups: int64(binary.LittleEndian.Uint64(b[24:32])),
	}
	if t.IndexOff < headerFixedLen || t.IndexLen < 4 ||
		t.IndexOff+int64(t.IndexLen)+TailLen != fileSize {
		return Tail{}, fmt.Errorf("segment: index geometry (off=%d len=%d size=%d): %w",
			t.IndexOff, t.IndexLen, fileSize, ErrCorrupt)
	}
	if t.HeaderLen < headerFixedLen || int64(t.HeaderLen) > t.IndexOff {
		return Tail{}, fmt.Errorf("segment: header length %d: %w", t.HeaderLen, ErrCorrupt)
	}
	return t, nil
}

// ParseIndex verifies the index bytes against the tail's CRC and decodes
// the block table. Blocks come back in file order: strictly ascending
// shard ids, contiguous offsets.
func ParseIndex(b []byte, t Tail) ([]BlockInfo, error) {
	if CRC(b) != t.IndexCRC {
		return nil, fmt.Errorf("segment: index: %w", ErrChecksum)
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("segment: index: %w", ErrTruncated)
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) != 4+n*indexEntryLen || n > inventory.ShardCount {
		return nil, fmt.Errorf("segment: index holds %d entries in %d bytes: %w", n, len(b), ErrCorrupt)
	}
	blocks := make([]BlockInfo, n)
	var total int64
	prevShard := -1
	for i := range blocks {
		e := b[4+i*indexEntryLen:]
		bi := BlockInfo{
			Shard:   int(binary.LittleEndian.Uint16(e[0:2])),
			Off:     int64(binary.LittleEndian.Uint64(e[2:10])),
			CompLen: binary.LittleEndian.Uint32(e[10:14]),
			RawLen:  binary.LittleEndian.Uint32(e[14:18]),
			CRC:     binary.LittleEndian.Uint32(e[18:22]),
			NGroups: binary.LittleEndian.Uint32(e[22:26]),
		}
		for s := 0; s < 3; s++ {
			bi.NSet[s] = binary.LittleEndian.Uint32(e[26+4*s:])
		}
		if bi.Shard <= prevShard || bi.Shard >= inventory.ShardCount {
			return nil, fmt.Errorf("segment: index shard order (%d after %d): %w", bi.Shard, prevShard, ErrCorrupt)
		}
		if bi.Off < headerFixedLen || bi.Off+int64(bi.CompLen) > t.IndexOff {
			return nil, fmt.Errorf("segment: block %d outside data region: %w", bi.Shard, ErrCorrupt)
		}
		if bi.NSet[0]+bi.NSet[1]+bi.NSet[2] != bi.NGroups {
			return nil, fmt.Errorf("segment: block %d set counts: %w", bi.Shard, ErrCorrupt)
		}
		// What a reader allocates for a block is bounded by its bytes in the
		// file (deflate.MaxRatio), and the columns fit in RawLen.
		if cols := 8 + uint64(bi.NGroups)*(inventory.EncodedKeyLen+12); uint64(bi.RawLen) < cols || uint64(bi.RawLen) > deflate.MaxRatio*uint64(bi.CompLen) {
			return nil, fmt.Errorf("segment: block %d raw length %d (%d groups, %d compressed): %w", bi.Shard, bi.RawLen, bi.NGroups, bi.CompLen, ErrCorrupt)
		}
		prevShard = bi.Shard
		total += int64(bi.NGroups)
		blocks[i] = bi
	}
	if total != t.TotalGroups {
		return nil, fmt.Errorf("segment: index counts %d groups, tail says %d: %w", total, t.TotalGroups, ErrCorrupt)
	}
	return blocks, nil
}

package inventory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/patternsoflife/pol/internal/stats"
)

// SealedShard is a frozen shard held as its encoded column block, laid out
// as a POLSEG1 block is before deflate (internal/segment):
//
//	n u32 | keys n×18 (ascending) | records n×u64 | offsets (n+1)×u32 | blob
//
// The offsets index the blob, which holds the groups' AppendBinary
// encodings in key order. A group costs its encoding plus 30 bytes, against
// about three times that as a CellSummary. A read decodes the summary it
// asks for, every time, into a summary of its own. A SealedShard never
// changes once built: heap snapshots, the master they came from and a
// segment reader's cache share it. The reader's cache may hold a prefix of
// a block: its columns and the summaries that end within it (End).
type SealedShard struct {
	shard int
	n     int
	raw   []byte // the whole block, or a prefix of it that holds the columns
	full  int    // the whole block's length
}

// blockHead is the group count in front of a block's columns, and
// groupCols what each group adds to them before the blob: its key, its
// record count and its offset.
const (
	blockHead = 4
	groupCols = keyBytes + 8 + 4
)

// ParseSealedShard adopts raw as the first bytes of shard's block, full
// bytes long: the whole block when len(raw) == full, else a prefix that
// holds at least the columns. It refuses a block whose columns do not fit
// it: every length is bounded by the bytes left, keys must ascend and hash
// to shard, offsets must start at zero and not decrease, and the last must
// end the blob at full. The summaries are not decoded (Adopt does that).
// The result aliases raw.
func ParseSealedShard(shard int, raw []byte, full int) (*SealedShard, error) {
	bad := func(what string) error { return fmt.Errorf("inventory: shard %d block: %s", shard, what) }
	if shard < 0 || shard >= ShardCount {
		return nil, bad("shard out of range")
	}
	if len(raw) < blockHead+4 || len(raw) > full {
		return nil, bad(fmt.Sprintf("%d bytes of %d", len(raw), full))
	}
	n := uint64(binary.LittleEndian.Uint32(raw))
	if n > uint64(len(raw)-blockHead-4)/groupCols {
		return nil, bad("column geometry")
	}
	b := &SealedShard{shard: shard, n: int(n), raw: raw, full: full}
	if b.off(0) != 0 {
		return nil, bad("first offset")
	}
	for i := range b.n {
		k := b.key(i)
		if set := GroupSet(k[0]); set < GSCell || set > GSCellODType {
			return nil, bad(fmt.Sprintf("key %d: unknown grouping set %d", i, set))
		}
		if i > 0 && bytes.Compare(b.key(i-1), k) >= 0 {
			return nil, bad("key column order")
		}
		if shardFor(b.Key(i)) != shard {
			return nil, bad(fmt.Sprintf("key %d outside its shard", i))
		}
		if b.off(i) > b.off(i+1) {
			return nil, bad("offset column order")
		}
	}
	if uint64(b.off(b.n)) != uint64(full-b.blob()) {
		return nil, bad("blob length")
	}
	return b, nil
}

// Over returns b over raw instead, a copy of what b holds or a longer
// prefix of the same block, without parsing its columns again: they must
// be b's, or it returns an error.
func (b *SealedShard) Over(raw []byte) (*SealedShard, error) {
	if cols := b.blob(); len(raw) < cols || len(raw) > b.full || !bytes.Equal(raw[:cols], b.raw[:cols]) {
		return nil, fmt.Errorf("inventory: shard %d block: %d bytes that are not a prefix of it", b.shard, len(raw))
	}
	return &SealedShard{shard: b.shard, n: b.n, raw: raw, full: b.full}, nil
}

// Len returns the number of groups in the block.
func (b *SealedShard) Len() int { return b.n }

// Size returns the bytes the shard holds: the block's, or its prefix's.
func (b *SealedShard) Size() int { return len(b.raw) }

// End returns the length of the block's prefix that holds group i.
func (b *SealedShard) End(i int) int { return b.blob() + int(b.off(i+1)) }

func (b *SealedShard) key(i int) []byte {
	return b.raw[blockHead+i*keyBytes : blockHead+(i+1)*keyBytes]
}

func (b *SealedShard) records(i int) uint64 {
	return binary.LittleEndian.Uint64(b.raw[blockHead+b.n*keyBytes+8*i:])
}

func (b *SealedShard) off(i int) uint32 {
	return binary.LittleEndian.Uint32(b.raw[blockHead+b.n*(keyBytes+8)+4*i:])
}

func (b *SealedShard) blob() int { return blockHead + b.n*groupCols + 4 }

// body returns the encoded summary of group i, or nil, which decodes to
// an error, when the shard holds a prefix short of it.
func (b *SealedShard) body(i int) []byte {
	if b.End(i) > len(b.raw) {
		return nil
	}
	return b.raw[b.blob()+int(b.off(i)) : b.End(i)]
}

// Key returns the key of group i.
func (b *SealedShard) Key(i int) GroupKey {
	k, _ := decodeKey(b.key(i)) // keyBytes long: no error
	return k
}

// Find returns the position of key in the block, by binary search over
// the key column.
func (b *SealedShard) Find(key GroupKey) (int, bool) {
	var want [keyBytes]byte
	appendKey(want[:0], key)
	i := sort.Search(b.n, func(i int) bool { return bytes.Compare(b.key(i), want[:]) >= 0 })
	return i, i < b.n && bytes.Equal(b.key(i), want[:])
}

// Summary decodes the summary of group i into a new one, refusing one
// whose record count is not the records column's: a re-seal copies that
// column, so it must hold what the summaries hold.
func (b *SealedShard) Summary(i int) (*CellSummary, error) {
	s, rest, err := DecodeCellSummary(b.body(i))
	if err != nil {
		return nil, fmt.Errorf("inventory: shard %d summary %d: %w", b.shard, i, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("inventory: shard %d summary %d: %d trailing bytes", b.shard, i, len(rest))
	}
	if s.Records != b.records(i) {
		return nil, fmt.Errorf("inventory: shard %d summary %d: %d records, the column says %d", b.shard, i, s.Records, b.records(i))
	}
	return s, nil
}

// Transitions decodes only the transitions of group i, most frequent
// first: what Summary(i).TopTransitions(TopNCapacity) returns, without the
// rest of the decode.
func (b *SealedShard) Transitions(i int) ([]stats.TopEntry, error) {
	t, rest, err := decodeTransitions(b.body(i))
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("inventory: shard %d summary %d: %w", b.shard, i, err)
	}
	return t.Top(TopNCapacity), nil
}

// blockEntry is one group on its way into a block: its encoded key and
// either its summary or, copied from a sealed block, its record count and
// summary bytes.
type blockEntry struct {
	key     [keyBytes]byte
	s       *CellSummary
	records uint64
	body    []byte
}

// appendBlock sorts es by key and appends their column block to dst — the
// one encoder of the layout, behind every sealed shard and every segment
// block. The offset column's size is known up front, so each summary is
// encoded once, straight into the blob, and its offset patched in.
func appendBlock(dst []byte, es []blockEntry) []byte {
	slices.SortFunc(es, func(a, b blockEntry) int { return bytes.Compare(a.key[:], b.key[:]) })
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(es)))
	for i := range es {
		dst = append(dst, es[i].key[:]...)
	}
	for i := range es {
		rec := es[i].records
		if es[i].s != nil {
			rec = es[i].s.Records
		}
		dst = binary.LittleEndian.AppendUint64(dst, rec)
	}
	offs := len(dst)
	dst = append(dst, make([]byte, 4*(len(es)+1))...)
	blob := len(dst)
	for i := range es {
		binary.LittleEndian.PutUint32(dst[offs+4*i:], uint32(len(dst)-blob))
		if es[i].s != nil {
			dst = es[i].s.AppendBinary(dst)
		} else {
			dst = append(dst, es[i].body...)
		}
	}
	binary.LittleEndian.PutUint32(dst[offs+4*len(es):], uint32(len(dst)-blob))
	return dst
}

// sealScratch holds the buffers blocks are encoded into before each is
// copied out at its exact size.
var sealScratch = sync.Pool{New: func() any { return new([]byte) }}

// Adopt returns an inventory holding the given sealed shards — a segment's
// blocks, as segment.Load inflates them — shared from the start: a fold
// (MergeFrom) overlays its shards instead of writing them, and Put,
// Observe and MergeImage panic. It decodes every summary once, to refuse a
// block that will not decode here rather than on a read, and keeps none. It
// refuses a prefix of a block.
func Adopt(info BuildInfo, blocks []*SealedShard) (*Inventory, error) {
	inv := &Inventory{info: info, shared: true}
	for _, b := range blocks {
		if len(b.raw) != b.full {
			return nil, fmt.Errorf("inventory: shard %d: %d of %d block bytes held", b.shard, len(b.raw), b.full)
		}
		if inv.shards[b.shard] != nil {
			return nil, fmt.Errorf("inventory: two blocks for shard %d", b.shard)
		}
		if b.n == 0 {
			continue
		}
		sh := &shard{base: b, n: b.n}
		for i := range b.n {
			sh.sets[b.key(i)[0]-byte(GSCell)]++ // a known set: ParseSealedShard checked
		}
		inv.shards[b.shard] = sh
		inv.count += b.n
	}
	if err := inv.Validate(); err != nil {
		return nil, err
	}
	return inv, nil
}

// AppendShardBlock appends the column block of shard i to dst: a sealed
// shard's block as it is held, or, where a fold has overlaid it, its
// untouched groups' bytes verbatim with the overlay encoded among them;
// an open shard's groups encoded; an empty block for a shard with none.
// The segment writer calls it once per shard, concurrently for distinct
// shards.
func (inv *Inventory) AppendShardBlock(dst []byte, i int) []byte {
	if sh := inv.shards[i]; sh != nil {
		return sh.appendBlock(dst)
	}
	return appendBlock(dst, nil)
}

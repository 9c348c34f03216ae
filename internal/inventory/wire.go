package inventory

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The wire image is the uncompressed in-flight form of an inventory: the
// cluster layer ships every reduce partial from worker to coordinator this
// way, inside a build round, over loopback or a LAN, and the coordinator
// folds it straight into the result (MergeImage). It has no file API
// and is not a persistence or replication format — those are POLSEG1
// (internal/segment). It exists because a partial lives for milliseconds
// and encoding it takes ~25 ms where compressing the same groups into a
// segment takes ~91 ms (bench fleet, 13 701 groups, 4.3 MB against 2.0 MB).
//
// Layout, version 2 (little-endian, except keys which are big-endian for
// sort order; the summary bytes are CellSummary.AppendBinary's, the same as
// in a segment blob, and an image of any other version is refused):
//
//	header:  magic "POLINV1\n" | version u32 | resolution u32 |
//	         rawRecords u64 | usedRecords u64 | builtUnix u64 |
//	         descLen u32 | desc bytes | numGroups u64
//	groups:  numGroups × ( key[18] | summaryLen u32 | summary bytes ),
//	         sorted by key bytes
//
// The magic is the one the retired POLINV1 file format began with; a file
// of that format handed to a tool is refused by name in segment.Open.

var wireMagic = []byte("POLINV1\n")

const wireVersion = 2

// Marshal encodes the inventory into its wire image. The error is always
// nil; the signature is the one the cluster layer and its tests call.
func Marshal(inv *Inventory) ([]byte, error) {
	info := inv.info
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, wireMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(info.Resolution))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(info.RawRecords))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(info.UsedRecords))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(info.BuiltUnix))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(info.Description)))
	buf = append(buf, info.Description...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(inv.Len()))

	// Sort keys by encoded bytes.
	type entry struct {
		keyEnc  [keyBytes]byte
		summary *CellSummary
	}
	entries := make([]entry, 0, inv.Len())
	inv.Each(func(k GroupKey, s *CellSummary) bool {
		e := entry{summary: s}
		appendKey(e.keyEnc[:0], k)
		entries = append(entries, e)
		return true
	})
	slices.SortFunc(entries, func(a, b entry) int { return bytes.Compare(a.keyEnc[:], b.keyEnc[:]) })

	for _, e := range entries {
		// key | summaryLen | summary, the length patched in once the
		// summary has been encoded in place.
		at := len(buf) + keyBytes
		buf = append(buf, e.keyEnc[:]...)
		buf = append(buf, 0, 0, 0, 0)
		buf = e.summary.AppendBinary(buf)
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return buf, nil
}

// MergeImage folds a wire image produced by Marshal into the receiver, as
// MergeFrom would fold the inventory the image holds: the header must
// match the receiver's resolution, its record counters are added, and
// every group is decoded straight into the receiver with Put's semantics —
// a group the receiver lacks adopts the decoded summary, one it holds
// merges it. No intermediate inventory is built. Groups are indexed by
// shard first, then decoded shard-parallel (a shard's groups in image
// order), so folding images one call at a time, in a fixed order, gives
// the same result at any GOMAXPROCS. MergeImage is writer-side, like
// MergeFrom. On error the receiver may hold part of the image and is to
// be discarded.
func (inv *Inventory) MergeImage(data []byte) error {
	inv.mustWrite("MergeImage")
	if len(data) < len(wireMagic)+4 || !bytes.Equal(data[:len(wireMagic)], wireMagic) {
		return fmt.Errorf("inventory: bad magic")
	}
	p := data[len(wireMagic):]
	le, truncated := binary.LittleEndian, fmt.Errorf("inventory: truncated wire image")
	if version := le.Uint32(p); version != wireVersion {
		return fmt.Errorf("inventory: wire image version %d, only version %d is read (coordinator and workers must run the same build)", version, wireVersion)
	}
	const fixed = 4 + 4 + 8 + 8 + 8 + 4 // version … descLen
	if len(p) < fixed || uint64(len(p)) < fixed+uint64(le.Uint32(p[32:]))+8 {
		return truncated
	}
	if res := int(le.Uint32(p[4:])); res != inv.info.Resolution {
		return fmt.Errorf("inventory: wire image at resolution %d, want %d", res, inv.info.Resolution)
	}
	raw, used := int64(le.Uint64(p[8:])), int64(le.Uint64(p[16:]))
	p = p[fixed+le.Uint32(p[32:]):]
	numGroups := le.Uint64(p)
	p = p[8:]

	type group struct {
		key  GroupKey
		body []byte
	}
	var shards [ShardCount][]group
	for i := uint64(0); i < numGroups; i++ {
		if len(p) < keyBytes+4 {
			return truncated
		}
		key, _ := decodeKey(p)
		bodyLen := uint64(le.Uint32(p[keyBytes:]))
		if p = p[keyBytes+4:]; uint64(len(p)) < bodyLen {
			return truncated
		}
		if key.Set < GSCell || key.Set > GSCellODType || !key.Cell.Valid() || key.Cell.Resolution() != inv.info.Resolution {
			return fmt.Errorf("inventory: group %d: bad key %v at resolution %d", i, key, inv.info.Resolution)
		}
		sh := shardFor(key)
		shards[sh] = append(shards[sh], group{key, p[:bodyLen]})
		p = p[bodyLen:]
	}
	var errs [ShardCount]error
	inv.eachShard(int(numGroups), func(i int) (added int) {
		if len(shards[i]) == 0 {
			return 0
		}
		sh := inv.writeShard(i, len(shards[i]))
		for _, g := range shards[i] {
			s, rest, err := DecodeCellSummary(g.body)
			if err == nil && len(rest) != 0 {
				err = fmt.Errorf("inventory: %d trailing bytes", len(rest))
			}
			if err != nil {
				errs[i] = fmt.Errorf("inventory: group %v: %w", g.key, err)
				return added
			}
			if sh.put(g.key, s, inv.epoch) {
				added++
			}
		}
		return added
	})
	if err := errors.Join(errs[:]...); err != nil {
		return err
	}
	inv.info.RawRecords += raw
	inv.info.UsedRecords += used
	return nil
}

// Equal reports whether two inventories hold exactly the same groups with
// exactly the same summary statistics, at the same resolution. Build
// provenance other than the resolution (description, timestamps, record
// counters) is ignored: it describes how an inventory was produced, not
// what it contains. Summaries compare by their canonical binary encoding,
// so every sketch (HLL registers, t-digest centroids, top-N tables) must
// match, not just the headline counts.
func Equal(a, b *Inventory) bool {
	if a == nil || b == nil {
		return a == b
	}
	return EqualViews(a, b)
}

// EqualViews is Equal over the read-only View surface, so a heap
// inventory and an open disk segment (or two segments) compare with the
// same bit-exact semantics regardless of which format each side lives in.
func EqualViews(a, b View) bool {
	if a.Info().Resolution != b.Info().Resolution || a.Len() != b.Len() {
		return false
	}
	equal := true
	var abuf, bbuf []byte
	a.Each(func(k GroupKey, s *CellSummary) bool {
		bs, ok := b.Get(k)
		if !ok {
			equal = false
			return false
		}
		abuf = s.AppendBinary(abuf[:0])
		bbuf = bs.AppendBinary(bbuf[:0])
		if !bytes.Equal(abuf, bbuf) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

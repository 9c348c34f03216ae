// Package inventory implements the paper's core contribution: the global
// inventory of per-cell statistical summaries (Tables 2 and 3), keyed by
// grouping-set identifiers, with an on-disk format supporting both full
// loads and random access.
package inventory

import (
	"encoding/binary"
	"fmt"

	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
)

// GroupSet selects one of the paper's grouping sets (Table 2).
type GroupSet uint8

// The three grouping sets of Table 2.
const (
	// GSCell groups by cell only: all traffic statistics crossing each cell.
	GSCell GroupSet = 1
	// GSCellType groups by cell and vessel type.
	GSCellType GroupSet = 2
	// GSCellODType groups by cell, origin, destination and vessel type.
	GSCellODType GroupSet = 3
)

// AllGroupSets lists the grouping sets in table order.
var AllGroupSets = []GroupSet{GSCell, GSCellType, GSCellODType}

// String returns the grouping-set identifier as the paper writes it.
func (g GroupSet) String() string {
	switch g {
	case GSCell:
		return "(cell)"
	case GSCellType:
		return "(cell,vessel-type)"
	case GSCellODType:
		return "(cell,origin,destination,vessel-type)"
	default:
		return fmt.Sprintf("GroupSet(%d)", uint8(g))
	}
}

// GroupKey is one group identifier (GI): the concatenation of the grouping
// set's feature values (§3.3.4). Fields not part of the grouping set are
// zero. GroupKey is comparable and serves directly as a map key.
type GroupKey struct {
	Set    GroupSet
	Cell   hexgrid.Cell
	VType  model.VesselType
	Origin model.PortID
	Dest   model.PortID
}

// NewGroupKey builds the group identifier of one observation under the
// given grouping set, zeroing the dimensions the set does not include.
func NewGroupKey(set GroupSet, cell hexgrid.Cell, vt model.VesselType, origin, dest model.PortID) GroupKey {
	k := GroupKey{Set: set, Cell: cell}
	switch set {
	case GSCellType:
		k.VType = vt
	case GSCellODType:
		k.VType = vt
		k.Origin = origin
		k.Dest = dest
	}
	return k
}

// Hash64 provides a fast deterministic hash: its low bits pick a group's
// hash shard, in the inventory and in a segment's blocks (ShardOf).
func (k GroupKey) Hash64() uint64 {
	h := uint64(k.Set)
	h = h*0x9e3779b97f4a7c15 + uint64(k.Cell)
	h = h*0x9e3779b97f4a7c15 + uint64(k.VType)
	h = h*0x9e3779b97f4a7c15 + uint64(k.Origin)<<32 | uint64(k.Dest)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return h ^ (h >> 32)
}

// keyBytes is the fixed-width binary encoding of a GroupKey, also its file
// sort order: set, cell, vessel type, origin, destination (big-endian so
// byte order equals logical order).
const keyBytes = 1 + 8 + 1 + 4 + 4

// EncodedKeyLen is the fixed width of the binary GroupKey encoding, exported
// for packages that lay keys out in columns (the segment store).
const EncodedKeyLen = keyBytes

// appendKey appends the fixed-width big-endian encoding of k; byte order
// of the encoding equals the canonical sort order of keys.
func appendKey(buf []byte, k GroupKey) []byte {
	buf = append(buf, byte(k.Set))
	buf = binary.BigEndian.AppendUint64(buf, uint64(k.Cell))
	buf = append(buf, byte(k.VType))
	buf = binary.BigEndian.AppendUint32(buf, uint32(k.Origin))
	buf = binary.BigEndian.AppendUint32(buf, uint32(k.Dest))
	return buf
}

// decodeKey decodes a fixed-width key.
func decodeKey(b []byte) (GroupKey, error) {
	if len(b) < keyBytes {
		return GroupKey{}, fmt.Errorf("inventory: short key: %d bytes", len(b))
	}
	return GroupKey{
		Set:    GroupSet(b[0]),
		Cell:   hexgrid.Cell(binary.BigEndian.Uint64(b[1:9])),
		VType:  model.VesselType(b[9]),
		Origin: model.PortID(binary.BigEndian.Uint32(b[10:14])),
		Dest:   model.PortID(binary.BigEndian.Uint32(b[14:18])),
	}, nil
}

// String renders the key for logs and the query tools.
func (k GroupKey) String() string {
	switch k.Set {
	case GSCell:
		return fmt.Sprintf("cell=%v", k.Cell)
	case GSCellType:
		return fmt.Sprintf("cell=%v type=%v", k.Cell, k.VType)
	case GSCellODType:
		return fmt.Sprintf("cell=%v type=%v od=%d→%d", k.Cell, k.VType, k.Origin, k.Dest)
	default:
		return fmt.Sprintf("set=%d cell=%v", k.Set, k.Cell)
	}
}

package inventory

import (
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/stats"
)

// View is the read-only query surface of an inventory. Two implementations
// exist: the in-memory *Inventory (heap path, used by the live ingestion
// engine and the WAL-tailing replica) and segment.Reader (disk path, which
// answers the same queries from an on-disk POLSEG1 columnar segment without
// materializing the groups). The api, eta and routing layers are written
// against View so a process can serve either path interchangeably.
//
// Implementations must be safe for concurrent readers. Frozen snapshots
// and segment readers both satisfy that; a mutable master inventory does
// not (see the Inventory concurrency contract).
type View interface {
	// Info returns the build provenance.
	Info() BuildInfo
	// Len returns the number of groups across all grouping sets.
	Len() int
	// Get returns the summary for an exact group identifier.
	Get(key GroupKey) (*CellSummary, bool)
	// Cell returns the all-traffic summary of a cell (GSCell).
	Cell(cell hexgrid.Cell) (*CellSummary, bool)
	// CountGroups returns the number of groups in one grouping set.
	CountGroups(set GroupSet) int
	// Cells returns all cells of one grouping set, sorted.
	Cells(set GroupSet) []hexgrid.Cell
	// Each calls f for every (key, summary) pair until f returns false.
	Each(f func(GroupKey, *CellSummary) bool)
	// ODCells returns every cell with traffic for an OD+type key, sorted.
	ODCells(origin, dest model.PortID, vt model.VesselType) []hexgrid.Cell
	// ODSummary returns the summary for a cell under the OD grouping set.
	ODSummary(cell hexgrid.Cell, origin, dest model.PortID, vt model.VesselType) (*CellSummary, bool)
	// ODTransitions returns the transitions of a cell under the OD
	// grouping set, most frequent first — its ODSummary's
	// TopTransitions(TopNCapacity), without decoding the rest.
	ODTransitions(cell hexgrid.Cell, origin, dest model.PortID, vt model.VesselType) ([]stats.TopEntry, bool)
	// TypeSummary returns the summary for a (cell, vessel-type) group.
	TypeSummary(cell hexgrid.Cell, vt model.VesselType) (*CellSummary, bool)
	// Compression returns the Table-4 compression metric for a set.
	Compression(set GroupSet) float64
	// Utilization returns the Table-4 H3-utilization metric.
	Utilization() float64
}

var _ View = (*Inventory)(nil)

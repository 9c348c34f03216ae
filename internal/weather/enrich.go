package weather

import (
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/stats"
)

// MaxSeaState is the highest Douglas degree tracked by the enrichment.
const MaxSeaState = 9

// CellWeather is the weather-conditioned summary of one cell: the speed
// distribution of traffic per sea state — the "weather-enriched" inventory
// the paper's future work describes. All statistics merge like the core
// Table-3 sketches.
type CellWeather struct {
	// BySeaState holds one speed accumulator per Douglas degree 0..9.
	BySeaState [MaxSeaState + 1]stats.Welford
	// Conditions aggregates the wave height observed in the cell.
	Conditions stats.Welford
}

// Add folds one report in, looking up the field at the report's place and
// time.
func (c *CellWeather) Add(f *Field, rec model.PositionRecord) {
	cond := f.At(rec.Pos, rec.Time)
	s := cond.SeaState()
	c.BySeaState[s].Add(rec.SOG)
	c.Conditions.Add(cond.WaveM)
}

// Inventory is the weather-enriched per-cell store.
type Inventory struct {
	Resolution int
	Field      *Field
	Cells      map[hexgrid.Cell]*CellWeather
}

// NewInventory returns an empty weather inventory over the field.
func NewInventory(field *Field, res int) *Inventory {
	return &Inventory{Resolution: res, Field: field, Cells: make(map[hexgrid.Cell]*CellWeather)}
}

// Add folds one report into its cell.
func (inv *Inventory) Add(rec model.PositionRecord) {
	cell := hexgrid.LatLngToCell(rec.Pos, inv.Resolution)
	cw, ok := inv.Cells[cell]
	if !ok {
		cw = &CellWeather{}
		inv.Cells[cell] = cw
	}
	cw.Add(inv.Field, rec)
}

// GlobalSpeedBySeaState aggregates every cell into one per-sea-state speed
// table — the headline series of the weather experiment.
func (inv *Inventory) GlobalSpeedBySeaState() [MaxSeaState + 1]stats.Welford {
	var out [MaxSeaState + 1]stats.Welford
	for _, cw := range inv.Cells {
		for i := range out {
			out[i].Merge(&cw.BySeaState[i])
		}
	}
	return out
}

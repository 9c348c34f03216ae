package inventory

import (
	"fmt"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
)

// This file implements the paper's two future-work directions (§5):
// hierarchical roll-up of a fine inventory into a coarser one, and
// non-uniform (adaptive) inventories that keep fine cells only where
// traffic density supports them — "larger cells in open sea areas ...
// preserving high resolution in dense areas, such as the ones near ports".

// RollUp merges every summary of a fine inventory into its ancestor cell at
// the coarser resolution, for all grouping sets. Because all Table-3
// statistics are mergeable sketches, the roll-up is exact for counters and
// within sketch tolerance for the approximate features — no re-scan of the
// raw data is needed. It returns an error if targetRes is not coarser than
// the source resolution.
func RollUp(fine *Inventory, targetRes int) (*Inventory, error) {
	srcRes := fine.Info().Resolution
	if targetRes >= srcRes || targetRes < 0 {
		return nil, fmt.Errorf("inventory: roll-up target %d must be coarser than source %d", targetRes, srcRes)
	}
	info := fine.Info()
	info.Resolution = targetRes
	info.Description = fmt.Sprintf("roll-up %d→%d: %s", srcRes, targetRes, info.Description)
	out := New(info)
	fine.Each(func(k GroupKey, s *CellSummary) bool {
		parent := k.Cell.Parent(targetRes)
		nk := k
		nk.Cell = parent
		// Clone-by-merge so the source inventory stays intact.
		c := NewCellSummary()
		c.Merge(s)
		out.Put(nk, c)
		return true
	})
	return out, nil
}

// AdaptiveCell is one cell of a non-uniform inventory: either a fine cell
// in a dense area or its coarse ancestor in a sparse one.
type AdaptiveCell struct {
	Cell    hexgrid.Cell
	Summary *CellSummary
}

// AdaptiveInventory is a two-resolution non-uniform inventory over the
// all-traffic grouping set: dense areas keep fineRes cells, sparse areas
// collapse to coarseRes ancestors.
type AdaptiveInventory struct {
	fineRes, coarseRes int
	cells              map[hexgrid.Cell]*CellSummary // mixed resolutions
}

// BuildAdaptive constructs a non-uniform inventory from a fine-resolution
// inventory. A coarse cell stays subdivided (its fine children are kept)
// only when the densest of its fine children holds at least minRecords
// records; otherwise the children merge into the coarse ancestor.
func BuildAdaptive(fine *Inventory, coarseRes int, minRecords uint64) (*AdaptiveInventory, error) {
	fineRes := fine.Info().Resolution
	if coarseRes >= fineRes || coarseRes < 0 {
		return nil, fmt.Errorf("inventory: adaptive coarse res %d must be coarser than %d", coarseRes, fineRes)
	}
	// Group fine cells by coarse ancestor.
	children := make(map[hexgrid.Cell][]hexgrid.Cell)
	for _, c := range fine.Cells(GSCell) {
		p := c.Parent(coarseRes)
		children[p] = append(children[p], c)
	}
	ai := &AdaptiveInventory{
		fineRes:   fineRes,
		coarseRes: coarseRes,
		cells:     make(map[hexgrid.Cell]*CellSummary),
	}
	for parent, kids := range children {
		var densest uint64
		for _, k := range kids {
			if s, ok := fine.Cell(k); ok && s.Records > densest {
				densest = s.Records
			}
		}
		if densest >= minRecords {
			// Dense area: keep the fine cells.
			for _, k := range kids {
				if s, ok := fine.Cell(k); ok {
					c := NewCellSummary()
					c.Merge(s)
					ai.cells[k] = c
				}
			}
			continue
		}
		// Sparse area: collapse into the coarse ancestor.
		merged := NewCellSummary()
		for _, k := range kids {
			if s, ok := fine.Cell(k); ok {
				merged.Merge(s)
			}
		}
		ai.cells[parent] = merged
	}
	return ai, nil
}

// Len returns the number of cells (fine + coarse).
func (ai *AdaptiveInventory) Len() int { return len(ai.cells) }

// CountByResolution returns how many cells are kept at each resolution.
func (ai *AdaptiveInventory) CountByResolution() (fine, coarse int) {
	for c := range ai.cells {
		if c.Resolution() == ai.fineRes {
			fine++
		} else {
			coarse++
		}
	}
	return fine, coarse
}

// At returns the summary covering the location: the fine cell if present,
// else the coarse ancestor.
func (ai *AdaptiveInventory) At(p geo.LatLng) (AdaptiveCell, bool) {
	fine := hexgrid.LatLngToCell(p, ai.fineRes)
	if s, ok := ai.cells[fine]; ok {
		return AdaptiveCell{Cell: fine, Summary: s}, true
	}
	coarse := hexgrid.LatLngToCell(p, ai.coarseRes)
	if s, ok := ai.cells[coarse]; ok {
		return AdaptiveCell{Cell: coarse, Summary: s}, true
	}
	return AdaptiveCell{}, false
}

// TotalRecords sums records across all cells (for conservation checks).
func (ai *AdaptiveInventory) TotalRecords() uint64 {
	var total uint64
	for _, s := range ai.cells {
		total += s.Records
	}
	return total
}

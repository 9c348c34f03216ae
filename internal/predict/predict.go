// Package predict implements the paper's §4.1.3 destination-prediction use
// case: a streaming application that, for each incoming position report of
// a vessel whose destination is undisclosed, queries the inventory for the
// top-N destinations of same-type vessels that sailed nearby in the past,
// and keeps a running vote tally to decide the most probable destination.
package predict

import (
	"sort"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
)

// Prediction is one candidate destination with its accumulated score.
type Prediction struct {
	Port  model.PortID
	Score float64
}

// Predictor accumulates destination votes over a stream of position
// reports of one vessel. It is not safe for concurrent use; create one per
// tracked vessel.
type Predictor struct {
	inv   *inventory.Inventory
	vtype model.VesselType
	votes map[model.PortID]float64
	obs   int
}

// New returns a predictor for a vessel of the given market segment.
func New(inv *inventory.Inventory, vtype model.VesselType) *Predictor {
	return &Predictor{
		inv:   inv,
		vtype: vtype,
		votes: make(map[model.PortID]float64),
	}
}

// Observe folds one position report into the vote tally. Each report
// contributes the cell's top destinations weighted by their historical
// share in the cell — the streaming scheme the paper sketches. Reports in
// cells with no history contribute nothing.
func (p *Predictor) Observe(pos geo.LatLng) {
	p.obs++
	cell := hexgrid.LatLngToCell(pos, p.inv.Info().Resolution)
	s, ok := p.inv.TypeSummary(cell, p.vtype)
	if !ok {
		// Fall back to all-traffic history when the segment has none here.
		if s, ok = p.inv.Cell(cell); !ok {
			return
		}
	}
	entries := s.Dests.Top(inventory.TopNCapacity)
	var total float64
	for _, e := range entries {
		total += float64(e.Count)
	}
	if total == 0 {
		return
	}
	for _, e := range entries {
		p.votes[model.PortID(e.Key)] += float64(e.Count) / total
	}
}

// Top returns the n highest-scoring destinations, most probable first.
// Ties break by ascending port id for determinism.
func (p *Predictor) Top(n int) []Prediction {
	out := make([]Prediction, 0, len(p.votes))
	for port, score := range p.votes {
		out = append(out, Prediction{Port: port, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Port < out[j].Port
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

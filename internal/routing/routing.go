// Package routing implements the paper's §4.1.3 route-forecasting use case:
// given a vessel performing a known origin-destination trip, retrieve from
// the inventory the full set of cells observed for the
// (origin, destination, vessel-type) key, organize them into a graph whose
// edges are the recorded cell transitions, and forecast the remaining route
// with A* — exactly the construction the paper describes (Figure 2.f).
package routing

import (
	"container/heap"
	"errors"
	"math"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
)

// Errors returned by the forecaster.
var (
	ErrNoHistory = errors.New("routing: no inventory cells for this origin/destination/type key")
	ErrNoPath    = errors.New("routing: transition graph has no path to the destination")
)

// Graph is the transition graph of one (origin, destination, vessel-type)
// key: vertices are cells, edges are historically observed transitions
// weighted by great-circle distance between cell centers.
type Graph struct {
	cells map[hexgrid.Cell][]edge
}

type edge struct {
	to    hexgrid.Cell
	distM float64
	count uint64 // historical transition frequency
}

// Build assembles the transition graph for the key from the inventory.
// It returns ErrNoHistory if the key has no cells.
func Build(inv inventory.View, origin, dest model.PortID, vt model.VesselType) (*Graph, error) {
	cells := inv.ODCells(origin, dest, vt)
	if len(cells) == 0 {
		return nil, ErrNoHistory
	}
	inSet := make(map[hexgrid.Cell]bool, len(cells))
	for _, c := range cells {
		inSet[c] = true
	}
	g := &Graph{cells: make(map[hexgrid.Cell][]edge, len(cells))}
	for _, c := range cells {
		s, ok := inv.ODSummary(c, origin, dest, vt)
		if !ok {
			continue
		}
		from := c.LatLng()
		var edges []edge
		for _, tr := range s.TopTransitions(inventory.TopNCapacity) {
			to := hexgrid.Cell(tr.Key)
			if !inSet[to] {
				continue // transition into a cell with no data for this key
			}
			edges = append(edges, edge{
				to:    to,
				distM: geo.Haversine(from, to.LatLng()),
				count: tr.Count,
			})
		}
		g.cells[c] = edges
	}
	return g, nil
}

// Size returns the number of vertices.
func (g *Graph) Size() int { return len(g.cells) }

// Nearest returns the graph vertex closest to the position.
func (g *Graph) Nearest(p geo.LatLng) (hexgrid.Cell, bool) {
	var best hexgrid.Cell
	bestD := math.Inf(1)
	for c := range g.cells {
		if d := geo.Haversine(p, c.LatLng()); d < bestD {
			best, bestD = c, d
		}
	}
	return best, !math.IsInf(bestD, 1)
}

// aStarItem is a priority-queue entry.
type aStarItem struct {
	cell hexgrid.Cell
	f    float64
}

type aStarPQ []aStarItem

func (q aStarPQ) Len() int           { return len(q) }
func (q aStarPQ) Less(i, j int) bool { return q[i].f < q[j].f }
func (q aStarPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *aStarPQ) Push(x any)        { *q = append(*q, x.(aStarItem)) }
func (q *aStarPQ) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// ShortestPath runs A* over the transition graph from the vertex nearest
// `from` to the vertex nearest `goal`, using great-circle distance to the
// goal as the admissible heuristic (the paper names A* explicitly). It
// returns the cell path including both endpoints.
func (g *Graph) ShortestPath(from, goal geo.LatLng) ([]hexgrid.Cell, error) {
	start, ok := g.Nearest(from)
	if !ok {
		return nil, ErrNoHistory
	}
	target, _ := g.Nearest(goal)

	h := func(c hexgrid.Cell) float64 { return geo.Haversine(c.LatLng(), target.LatLng()) }
	gScore := map[hexgrid.Cell]float64{start: 0}
	prev := make(map[hexgrid.Cell]hexgrid.Cell)
	done := make(map[hexgrid.Cell]bool)
	pq := &aStarPQ{{cell: start, f: h(start)}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(aStarItem).cell
		if done[cur] {
			continue
		}
		if cur == target {
			var path []hexgrid.Cell
			for c := cur; ; {
				path = append(path, c)
				p, ok := prev[c]
				if !ok {
					break
				}
				c = p
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path, nil
		}
		done[cur] = true
		for _, e := range g.cells[cur] {
			if done[e.to] {
				continue
			}
			ng := gScore[cur] + e.distM
			if old, seen := gScore[e.to]; !seen || ng < old {
				gScore[e.to] = ng
				prev[e.to] = cur
				heap.Push(pq, aStarItem{cell: e.to, f: ng + h(e.to)})
			}
		}
	}
	return nil, ErrNoPath
}

// Forecast is the end-to-end convenience: build the key's graph and return
// the forecast cell path from the vessel's position to the destination
// port.
func Forecast(inv inventory.View, origin, dest model.PortID, vt model.VesselType, from, destPos geo.LatLng) ([]hexgrid.Cell, error) {
	g, err := Build(inv, origin, dest, vt)
	if err != nil {
		return nil, err
	}
	return g.ShortestPath(from, destPos)
}

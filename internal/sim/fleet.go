package sim

import (
	"fmt"
	"math/rand"

	"github.com/patternsoflife/pol/internal/model"
)

// typeSpec holds the kinematic envelope of one market segment.
type typeSpec struct {
	vtype      model.VesselType
	share      float64 // fleet share
	minSpeed   float64 // service speed range, knots
	maxSpeed   float64
	minGRT     int
	maxGRT     int
	namePrefix string
}

var fleetMix = []typeSpec{
	{model.VesselContainer, 0.28, 16, 23, 20000, 220000, "CONTI"},
	{model.VesselBulk, 0.27, 11, 14.5, 15000, 110000, "BULKER"},
	{model.VesselTanker, 0.25, 11.5, 15.5, 20000, 170000, "TANKER"},
	{model.VesselCargo, 0.12, 12, 18, 6000, 40000, "CARGO"},
	{model.VesselPassenger, 0.08, 17, 22, 30000, 180000, "FERRY"},
}

// Fleet is a simulated commercial fleet: the vessel static inventory of
// Table 1.
type Fleet struct {
	Vessels []model.VesselInfo
	speeds  map[uint32]float64 // MMSI → service speed
}

// NewFleet generates n deterministic vessels with a realistic market-segment
// mix. MMSIs are unique; all vessels pass the commercial-fleet filter (class
// A, > 5000 GRT).
func NewFleet(n int, seed int64) *Fleet {
	rng := rand.New(rand.NewSource(seed))
	f := &Fleet{
		Vessels: make([]model.VesselInfo, 0, n),
		speeds:  make(map[uint32]float64, n),
	}
	counts := make(map[model.VesselType]int)
	for i := 0; i < n; i++ {
		spec := pickSpec(rng)
		counts[spec.vtype]++
		mmsi := uint32(200000000 + i*37 + rng.Intn(17))
		speed := spec.minSpeed + rng.Float64()*(spec.maxSpeed-spec.minSpeed)
		grt := spec.minGRT + rng.Intn(spec.maxGRT-spec.minGRT)
		v := model.VesselInfo{
			MMSI:        mmsi,
			IMO:         uint32(9000000 + i),
			Name:        fmt.Sprintf("%s %d", spec.namePrefix, counts[spec.vtype]),
			CallSign:    fmt.Sprintf("SIM%04d", i),
			Type:        spec.vtype,
			GRT:         grt,
			LengthM:     90 + grt/700,
			BeamM:       15 + grt/7000,
			DesignSpeed: speed,
			ClassA:      true,
		}
		f.Vessels = append(f.Vessels, v)
		f.speeds[mmsi] = speed
	}
	return f
}

func pickSpec(rng *rand.Rand) typeSpec {
	r := rng.Float64()
	acc := 0.0
	for _, s := range fleetMix {
		acc += s.share
		if r < acc {
			return s
		}
	}
	return fleetMix[len(fleetMix)-1]
}

// StaticIndex returns an MMSI-keyed map of the fleet, the form the
// pipeline's annotation step joins against.
func (f *Fleet) StaticIndex() map[uint32]model.VesselInfo {
	idx := make(map[uint32]model.VesselInfo, len(f.Vessels))
	for _, v := range f.Vessels {
		idx[v.MMSI] = v
	}
	return idx
}
